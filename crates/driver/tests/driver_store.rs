//! The persistent artifact store, end to end: restart-warm rebuilds
//! (drop the `Session`, open a new one over the same directory, compile
//! nothing), symbol relocation under a simulated process restart,
//! corrupt-store tolerance, and the differential check that disk-loaded
//! artifacts still match the sequential oracle at every worker count.
//!
//! The *true* cross-process validation — two separate operating-system
//! processes sharing one store — lives in `report_driver` (it spawns
//! itself as cold and warm probe children); these tests cover the same
//! machinery in-process, where a fresh `Session` plays the part of the
//! fresh process and the portable blobs' symbol tables are exercised by
//! relocating generated names to symbols new to the reader, one per
//! stored name.

use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_driver::cache::CacheTier;
use cccc_driver::session::Session;
use cccc_driver::store::ArtifactStore;
use cccc_driver::workloads::{deep_chain, diamond, root_of, skewed, WorkUnit};
use cccc_driver::{Artifact, UnitStatus};
use cccc_source as src;
use cccc_source::generate::TermGenerator;
use cccc_target as tgt;
use cccc_util::wire::Fingerprint;
use std::path::PathBuf;

/// A unique, cleaned temp directory per test.
fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cccc-driver-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session_with_store(units: &[WorkUnit], dir: &PathBuf) -> Session {
    let mut session =
        Session::with_store(CompilerOptions::default(), dir).expect("store dir is creatable");
    for unit in units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        session.add_unit(&unit.name, &imports, &unit.term).expect("workload names are unique");
    }
    session
}

#[test]
fn restart_warm_diamond_16_compiles_nothing_and_matches_the_oracle() {
    // The CI smoke configuration: base + 14 middles + top = 16 units,
    // built to a store, then rebuilt by a *new* session over the same
    // store — the in-process stand-in for a process restart.
    let units = diamond(14, 2);
    assert_eq!(units.len(), 16);
    let dir = temp_store("restart-warm");

    let cold_observed = {
        let mut cold = session_with_store(&units, &dir);
        let report = cold.build(2).unwrap();
        assert!(report.is_success(), "cold build failed: {}", report.summary());
        // The store is content-addressed by artifact key, and every unit
        // is its own α-class: one compile and one blob per unit.
        let store = report.store.expect("session has a store");
        assert_eq!(store.write_throughs, 16);
        assert_eq!(cold.store_stats().unwrap().entries, 16, "one blob per α-class");
        assert_eq!(report.compiled_count(), 16);
        cold.observe(root_of(&units)).unwrap()
    }; // ← the Session (and its in-memory cache) is dropped here

    let mut warm = session_with_store(&units, &dir);
    let report = warm.build(2).unwrap();
    assert!(report.is_success(), "restart-warm build failed: {}", report.summary());
    assert_eq!(report.compiled_count(), 0, "restart-warm build must compile zero units");
    assert_eq!(report.cached_count(), 16);
    assert_eq!(report.disk_cached_count(), 16, "every unit must come from the disk tier");
    assert!(report.units.iter().all(|u| u.cached_from == Some(CacheTier::Disk)));
    let store = report.store.expect("session has a store");
    assert_eq!(store.disk_hits, 16, "each of the 16 blobs is read exactly once");
    assert_eq!(store.write_throughs, 0);

    // Verdicts and artifacts are identical to the sequential oracle,
    // even though every artifact was decoded from disk through the
    // relocatable symbol tables.
    let sequential = warm.compile_sequential().unwrap();
    for (name, compilation) in &sequential {
        let driver_target = warm.target_term(name).unwrap();
        assert!(
            tgt::subst::alpha_eq(&driver_target, &compilation.target),
            "unit `{name}`: disk-loaded target differs from the sequential pipeline"
        );
        let driver_interface = warm.interface(name).unwrap();
        assert!(
            src::subst::alpha_eq(&driver_interface, &compilation.source_type),
            "unit `{name}`: disk-loaded interface differs from the sequential pipeline"
        );
    }
    assert_eq!(warm.observe(root_of(&units)).unwrap(), cold_observed);
    assert_eq!(cold_observed, Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_loaded_artifacts_match_the_oracle_at_every_worker_count() {
    // Warm the store once, then rebuild from disk at 1/2/4 workers (a
    // fresh session each time, so *every* artifact is disk-loaded) with
    // critical-path scheduling, and hold the results against the
    // sequential pipeline.
    let units = skewed(3, 3, 2);
    let dir = temp_store("differential");
    session_with_store(&units, &dir).build(2).unwrap();

    for workers in [1, 2, 4] {
        let mut session = session_with_store(&units, &dir);
        let report = session.build(workers).unwrap();
        assert!(report.is_success(), "{}", report.summary());
        assert_eq!(report.compiled_count(), 0, "workers={workers}: {}", report.summary());
        assert_eq!(report.disk_cached_count(), units.len());

        let sequential = session.compile_sequential().unwrap();
        for (name, compilation) in &sequential {
            let driver_target = session.target_term(name).unwrap();
            assert!(
                tgt::subst::alpha_eq(&driver_target, &compilation.target),
                "unit `{name}` at {workers} workers differs from the sequential pipeline"
            );
        }
        assert_eq!(session.observe(root_of(&units)).unwrap(), Some(false));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn implementation_only_edits_recompile_one_unit_after_a_restart() {
    let units = diamond(4, 2);
    let dir = temp_store("incremental-restart");
    session_with_store(&units, &dir).build(2).unwrap();

    // "Restart", then edit `base`'s implementation without changing its
    // interface: exactly one unit recompiles, the rest load from disk.
    let mut session = session_with_store(&units, &dir);
    let retagged = src::builder::let_(
        "tag_retagged",
        src::builder::bool_ty(),
        src::builder::ff(),
        src::prelude::poly_id(),
    );
    session.update_unit("base", &retagged).unwrap();
    let report = session.build(2).unwrap();
    assert!(report.is_success(), "{}", report.summary());
    assert_eq!(report.compiled_count(), 1, "{}", report.summary());
    assert_eq!(report.disk_cached_count(), units.len() - 1);
    let recompiled: Vec<&str> = report
        .units
        .iter()
        .filter(|u| u.status == UnitStatus::Compiled)
        .map(|u| u.name.as_str())
        .collect();
    assert_eq!(recompiled, vec!["base"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_blobs_degrade_to_recompiles_never_to_errors() {
    // A chain is α-distinct unit to unit (each stage names its
    // predecessor free), so it gets one blob per unit.
    let units = deep_chain(4, 2);
    let dir = temp_store("corruption");
    session_with_store(&units, &dir).build(2).unwrap();

    // Vandalise every blob a different way the *header read* catches:
    // truncation, header-checksum breakage, version skew, emptiness.
    // (Section-body rot is invisible to the header load by design —
    // the lazy-rot test below covers that path.)
    let mut blobs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "art"))
        .collect();
    blobs.sort();
    assert_eq!(blobs.len(), 4);
    for (i, path) in blobs.iter().enumerate() {
        let mut bytes = std::fs::read(path).unwrap();
        match i {
            0 => bytes.truncate(bytes.len() / 3),
            1 => bytes[40] ^= 0xFF, // a fingerprint word: header checksum mismatch
            2 => bytes[8] = bytes[8].wrapping_add(1), // format version word
            _ => bytes.clear(),
        }
        std::fs::write(path, &bytes).unwrap();
    }

    // A restart-warm build over the vandalised store must *succeed* by
    // recompiling everything, counting the blobs as invalid entries.
    let mut session = session_with_store(&units, &dir);
    let report = session.build(2).unwrap();
    assert!(report.is_success(), "corrupt store must not fail the build: {}", report.summary());
    assert_eq!(report.compiled_count(), units.len());
    assert_eq!(report.disk_cached_count(), 0);
    let store = report.store.expect("session has a store");
    assert_eq!(store.invalid_entries, 4);
    assert_eq!(store.write_throughs, 4, "good blobs replace the vandalised ones");
    assert_eq!(session.observe(root_of(&units)).unwrap(), Some(true));

    // And now the repaired store answers a second restart warm.
    let mut again = session_with_store(&units, &dir);
    let warm = again.build(2).unwrap();
    assert_eq!(warm.compiled_count(), 0, "{}", warm.summary());
    assert_eq!(warm.disk_cached_count(), units.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lazily_rotted_sections_degrade_to_recompiles_and_self_heal() {
    let units = deep_chain(3, 2);
    let dir = temp_store("lazy-rot");
    session_with_store(&units, &dir).build(2).unwrap();

    // Flip the last byte of every blob — section-body rot the header
    // read cannot see — and delete the verified records, so the warm
    // build must decode term sections for check/verify and trips over
    // the rot there.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let path = entry.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("art") => {
                let mut bytes = std::fs::read(&path).unwrap();
                *bytes.last_mut().unwrap() ^= 0xFF;
                std::fs::write(&path, &bytes).unwrap();
            }
            Some("vfy") => std::fs::remove_file(&path).unwrap(),
            _ => {}
        }
    }

    // Every unit's blob loads (the header is intact), the deferred
    // decode fails its per-section checksum, and the session falls back
    // to a recompile — never an error.
    let mut session = session_with_store(&units, &dir);
    let report = session.build(2).unwrap();
    assert!(report.is_success(), "lazy rot must not fail the build: {}", report.summary());
    assert_eq!(report.compiled_count(), units.len(), "{}", report.summary());
    let store = report.store.expect("session has a store");
    assert_eq!(store.invalid_entries, 3, "each rotted blob is detected at first decode");
    assert_eq!(store.write_throughs, 3, "recompiles heal the store");
    assert_eq!(session.observe(root_of(&units)).unwrap(), Some(true));

    // The healed store answers a second restart warm.
    let warm = session_with_store(&units, &dir).build(2).unwrap();
    assert_eq!(warm.compiled_count(), 0, "{}", warm.summary());
    assert_eq!(warm.disk_cached_count(), units.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn session_gc_sweeps_stale_entries_and_keeps_warm_builds_warm() {
    let units = diamond(4, 2);
    let dir = temp_store("gc-session");
    session_with_store(&units, &dir).build(2).unwrap();

    // Edit base's implementation (interface unchanged): its old blob
    // and verified record become unreachable from any future build.
    let mut session = session_with_store(&units, &dir);
    let retagged = src::builder::let_(
        "tag_gc",
        src::builder::bool_ty(),
        src::builder::ff(),
        src::prelude::poly_id(),
    );
    session.update_unit("base", &retagged).unwrap();
    session.build(2).unwrap();

    let disk_bytes = || -> u64 {
        std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "art" || x == "vfy"))
            .map(|e| e.metadata().unwrap().len())
            .sum()
    };
    let total = disk_bytes();

    // Any budget below the current size forces a sweep; stale entries
    // go first, so the reachable set survives untouched.
    let budget = total - 1;
    session.set_store_budget(Some(cccc_driver::StoreBudget { max_bytes: budget }));
    let report = session.build(2).unwrap();
    assert_eq!(report.compiled_count(), 0, "{}", report.summary());
    let gc = report.gc.expect("budgeted build reports its sweep");
    assert!(gc.evicted >= 1, "something stale was evicted: {gc:?}");
    assert!(gc.retained_bytes <= budget);
    assert!(disk_bytes() <= budget, "the budget is enforced on disk");
    assert_eq!(report.store.expect("session has a store").gc_evictions, gc.evicted);

    // The sweep took nothing the current graph can reach: a restart-warm
    // build of the *retagged* graph over the swept store compiles
    // nothing. (The pre-edit base blob is exactly what the sweep ate.)
    let mut restarted = session_with_store(&units, &dir);
    restarted.update_unit("base", &retagged).unwrap();
    let warm = restarted.build(2).unwrap();
    assert_eq!(warm.compiled_count(), 0, "{}", warm.summary());
    assert_eq!(warm.disk_cached_count(), units.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wiping_the_store_makes_a_fresh_session_cold() {
    let units = deep_chain(3, 2);
    let dir = temp_store("wipe");
    {
        let mut session = session_with_store(&units, &dir);
        session.build(2).unwrap();
        assert_eq!(session.store_stats().unwrap().entries, 3);
        session.wipe_store().unwrap();
        assert_eq!(session.store_stats().unwrap().entries, 0);
    }
    let mut fresh = session_with_store(&units, &dir);
    let report = fresh.build(2).unwrap();
    assert_eq!(report.compiled_count(), units.len(), "{}", report.summary());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_sessions_over_one_store_link_the_root_to_the_same_node() {
    // Both warm sessions decode every section from disk; generated names
    // relocate to one symbol per process, so the second link rebuilds
    // the nodes the first one holds.
    let units = diamond(4, 2);
    let dir = temp_store("relink");
    session_with_store(&units, &dir).build(1).unwrap();
    let link = || {
        let mut session = session_with_store(&units, &dir);
        let report = session.build(1).unwrap();
        assert_eq!(report.disk_cached_count(), units.len(), "{}", report.summary());
        session.link(root_of(&units)).unwrap().rc()
    };
    let first = link();
    let second = link();
    assert!(first.same(&second), "re-linking a store-loaded program built new nodes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The relocation property test: for generator-produced programs, an
/// artifact that goes compile → blob → disk → load → decode is
/// α-equivalent to the original compilation. Loading relocates every
/// generated symbol to one minted in this process at its first decode,
/// new to everything already here (a new process mints its own), so this
/// exercises the relocation half of a restart without leaving the test
/// process.
#[test]
fn relocated_artifacts_are_alpha_equivalent_for_generated_programs() {
    let dir = temp_store("relocation-property");
    let store = ArtifactStore::open(&dir).unwrap();
    let compiler = Compiler::new();
    let mut generator = TermGenerator::new(0xC0C0_0005);
    let mut checked = 0;
    for i in 0..40 {
        let (term, _ty) = generator.gen_program();
        let Ok(compilation) = compiler.compile_closed(&term) else {
            continue; // generator corner cases the pipeline rejects
        };
        checked += 1;
        let interface_alpha = src::wire::fingerprint_alpha(&compilation.source_type);
        let artifact = Artifact::new(
            src::wire::encode(&compilation.source_type),
            tgt::wire::encode(&compilation.target),
            tgt::wire::encode(&compilation.target_type),
            interface_alpha,
            interface_alpha
                .combine(tgt::wire::fingerprint_alpha(&compilation.target))
                .combine(tgt::wire::fingerprint_alpha(&compilation.target_type)),
        );
        let key = Fingerprint::of_words(&[0xAB, i]);
        store.save(key, &artifact);
        let loaded = store.load(key).expect("blob loads back");

        assert_eq!(loaded.interface_fingerprint(), artifact.interface_fingerprint());
        let interface_wire = loaded.source_ty().expect("interface section decodes");
        let interface = src::wire::decode(&interface_wire).expect("interface decodes");
        assert!(
            src::subst::alpha_eq(&interface, &compilation.source_type),
            "relocated interface differs for program {i}: {term}"
        );
        let target_wire = loaded.target().expect("target section decodes");
        let target = tgt::wire::decode(&target_wire).expect("target decodes");
        assert!(
            tgt::subst::alpha_eq(&target, &compilation.target),
            "relocated target differs for program {i}: {term}"
        );
        let target_ty_wire = loaded.target_ty().expect("target type section decodes");
        let target_ty = tgt::wire::decode(&target_ty_wire).expect("target type decodes");
        assert!(
            tgt::subst::alpha_eq(&target_ty, &compilation.target_type),
            "relocated target type differs for program {i}: {term}"
        );

        // A second load relocates generated names to the same symbols, so
        // it decodes to the very same node.
        let reloaded = store.load(key).expect("blob loads twice");
        let target_again_wire = reloaded.target().expect("target section decodes");
        let target_again = tgt::wire::decode(&target_again_wire).expect("target decodes");
        assert!(target_again.rc().same(&target.rc()));
    }
    assert!(checked >= 20, "only {checked}/40 generated programs compiled");
    let _ = std::fs::remove_dir_all(&dir);
}
