//! Concurrency properties of the disk tier on restart-warm builds:
//! blob reads run *outside* every session lock (proved by overlapping
//! `store.read` spans on different workers), and the artifact table's
//! single-flight claims mean each α-class is read from disk exactly once
//! no matter how many units or workers want it.
//!
//! Both tests inject a read delay ([`Session::set_store_read_delay`])
//! to stretch every blob read far past the scheduler's bookkeeping, so
//! the timing assertions are robust: if loads were serialized under the
//! session lock, the stretched spans could never overlap, and a second
//! reader of a shared blob could never observe the first one in flight.

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::session::Session;
use cccc_driver::workloads::WorkUnit;
use cccc_util::trace::SpanRecord;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cccc-concurrency-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Import-free units whose sources are structurally distinct (not
/// α-variants), so every unit owns its own store blob *and* every unit
/// is ready the moment the build starts — the workers' disk loads have
/// no dependency edges forcing them apart.
fn distinct_leaves(count: usize) -> Vec<WorkUnit> {
    use cccc_source::builder as s;
    (0..count)
        .map(|i| {
            // Left-nested conditional chains of distinct depth: depth i
            // has i+1 `if` nodes, so no two units are α-equivalent.
            let mut term = s::ite(s::tt(), s::tt(), s::ff());
            for _ in 0..i {
                term = s::ite(term, s::tt(), s::ff());
            }
            WorkUnit { name: format!("leaf{i}"), imports: Vec::new(), term }
        })
        .collect()
}

fn session_with_store(units: &[WorkUnit], dir: &PathBuf) -> Session {
    let mut session =
        Session::with_store(CompilerOptions::default(), dir).expect("store dir is creatable");
    for unit in units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        session.add_unit(&unit.name, &imports, &unit.term).unwrap();
    }
    session
}

fn overlapping_pair_on_distinct_workers(spans: &[&SpanRecord]) -> Option<(usize, usize)> {
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if a.worker != b.worker && a.start_ns < b.end_ns && b.start_ns < a.end_ns {
                return Some((a.worker, b.worker));
            }
        }
    }
    None
}

/// The tentpole property, witnessed from the trace: a restart-warm
/// build's blob reads on different workers overlap in time. Every
/// `store.read` span is stretched to ≥5 ms, so if the loads were
/// serialized — open/read/checksum performed while holding a session
/// lock — no two spans from different workers could intersect.
#[test]
fn warm_blob_reads_overlap_across_workers() {
    let units = distinct_leaves(6);
    let dir = temp_dir("overlap");
    session_with_store(&units, &dir).build(2).unwrap();

    let mut warm = session_with_store(&units, &dir);
    warm.set_tracing(true);
    warm.set_store_read_delay(Duration::from_millis(5));
    let report = warm.build(2).unwrap();
    assert!(report.is_success(), "{}", report.summary());
    assert_eq!(report.compiled_count(), 0, "{}", report.summary());
    assert_eq!(report.disk_cached_count(), units.len());

    // Distinct α-classes: one read per unit, nothing coalesced.
    let store = report.store.expect("session has a store");
    assert_eq!(store.disk_hits, units.len() as u64, "one disk load per α-class");
    assert_eq!(warm.cache_stats().coalesced, 0, "distinct blobs never wait on each other");

    let trace = report.trace.as_ref().expect("tracing was enabled");
    let reads: Vec<&SpanRecord> = trace.spans.iter().filter(|s| s.name == "store.read").collect();
    assert_eq!(reads.len(), units.len(), "every load ran under a store.read span");
    let workers: std::collections::HashSet<usize> = reads.iter().map(|s| s.worker).collect();
    assert!(workers.len() >= 2, "loads were spread over several workers: {workers:?}");
    assert!(
        overlapping_pair_on_distinct_workers(&reads).is_some(),
        "no two store.read spans from different workers overlap — blob I/O \
         is being serialized under a session lock"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The single-flight claim, under contention: α-equivalent units racing
/// on one content-addressed blob produce exactly one disk read per
/// α-class; every other worker records a coalesced wait and takes the
/// claimant's load instead of reading the file again.
#[test]
fn alpha_equivalent_warm_loads_coalesce_to_one_read_per_class() {
    use cccc_source::builder as s;
    // `base`, 8 α-equivalent middles behind it, and a root folding them.
    let mut units = vec![WorkUnit {
        name: "base".to_owned(),
        imports: Vec::new(),
        term: cccc_source::prelude::poly_id(),
    }];
    for i in 0..8 {
        let binder = format!("v{i}");
        let applied = s::app(s::app(s::var("base"), s::bool_ty()), s::tt());
        let term = s::let_(&binder, s::bool_ty(), applied, s::var(&binder));
        units.push(WorkUnit { name: format!("mid{i}"), imports: vec!["base".to_owned()], term });
    }
    let mids: Vec<String> = (0..8).map(|i| format!("mid{i}")).collect();
    let root = mids.iter().rev().fold(s::tt(), |body, mid| s::ite(s::var(mid), body, s::ff()));
    units.push(WorkUnit { name: "root".to_owned(), imports: mids, term: root });
    let dir = temp_dir("coalesce");
    session_with_store(&units, &dir).build(2).unwrap();

    let mut warm = session_with_store(&units, &dir);
    warm.set_store_read_delay(Duration::from_millis(5));
    let report = warm.build(2).unwrap();
    assert!(report.is_success(), "{}", report.summary());
    assert_eq!(report.compiled_count(), 0, "{}", report.summary());
    assert_eq!(report.disk_cached_count(), units.len());

    // Three α-classes (base, the shared middle, root) → three reads,
    // however many units and workers asked.
    let store = report.store.expect("session has a store");
    assert_eq!(store.disk_hits, 3, "one disk load per α-class");
    // With the read stretched to 5 ms the second worker is guaranteed
    // to find the middle class's claim still held by the loader.
    assert!(
        warm.cache_stats().coalesced >= 1,
        "a concurrent α-equivalent lookup waited on the loader's claim: {:?}",
        warm.cache_stats()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
