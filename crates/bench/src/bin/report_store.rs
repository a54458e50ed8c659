//! The artifact-store benchmark: what the lazy blob format and the
//! size-bounded GC buy, measured across real process boundaries and
//! asserted as CI gates.
//!
//! Three probe children (fresh processes, like `report_driver`'s restart
//! probes) share one on-disk store over the 16-unit diamond; each reports
//! its wall time as a median over fresh sessions:
//!
//! * `cold` — populates the store from nothing (each rep's untimed
//!   set-up empties it first);
//! * `warm` — the product: a restart-warm build with lazy section
//!   decode. Gated to decode **zero** sections: the whole
//!   graph-validation path (artifact keys, early cutoff, verified
//!   records) runs off blob *headers*;
//! * `full` — the same build, then every section of every unit's
//!   artifact read and checksummed — what a store that decoded
//!   everything at load would pay. Gated to decode all three sections
//!   of every blob it loads and to read more bytes than `warm`; the wall
//!   ratio is reported, not gated.
//!
//! Then the GC phase: a signature edit re-keys every unit (the entire
//! first generation of blobs goes stale), a budgeted build sweeps the
//! store down to exactly the live bytes, and a final fresh process over
//! the swept store must still compile nothing — eviction under budget
//! with zero warm hit-rate regression on the reachable set.

use cccc_bench::measure::{self, obj, Args, Json, Summary};
use cccc_bench::store_session;
use cccc_driver::workloads::{root_of, WorkUnit};
use cccc_driver::StoreBudget;
use cccc_source::builder as s;
use cccc_source::prelude;
use std::path::Path;

const STORE_PROBE_FLAG: &str = "--store-probe";

/// Leaves of each middle unit's fat body. The stock `workloads::diamond`
/// tunes type-checking *time* (Church arithmetic normalizes); this store
/// benchmark needs fat *payloads* — the lazy-vs-full gap is bytes read
/// and checksummed, so the middle bodies are wide boolean `if` trees:
/// linear to check, logarithmic in recursion depth, large on the wire.
const FAT_LEAVES: usize = 4096;

/// A balanced boolean `if` tree over `leaves` *distinct* redexes
/// (`(λ uNNNN : Bool. uNNNN) tt` — a fresh binder name per leaf, so the
/// hash-consed wire encoding cannot back-reference them away), folded
/// pairwise as `if a then b else ff` — evaluates to `tt`, type-checks
/// node by node, and never recurses deeply.
fn fat_term(leaves: usize) -> cccc_source::Term {
    let mut layer: Vec<cccc_source::Term> = (0..leaves)
        .map(|i| {
            let binder = format!("u{i:05}");
            s::app(s::lam(&binder, s::bool_ty(), s::var(&binder)), s::tt())
        })
        .collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => s::ite(a.clone(), b.clone(), s::ff()),
                _ => pair[0].clone(),
            })
            .collect();
    }
    layer.pop().expect("at least one leaf")
}

/// The 16-unit diamond with fat middles: `base` exports the polymorphic
/// identity, 14 α-equivalent middles (distinct only in a tag binder
/// name, so they share one artifact key: one claim compiles or loads
/// them, and the store holds one blob for all 14) each apply it to a
/// [`fat_term`], `top` folds them together.
fn store_workload() -> Vec<WorkUnit> {
    let mut units = Vec::with_capacity(16);
    units.push(WorkUnit { name: "base".to_owned(), imports: Vec::new(), term: prelude::poly_id() });
    let mut mid_names = Vec::with_capacity(14);
    for i in 0..14 {
        let name = format!("mid{i:02}");
        let term = s::let_(
            &format!("tag_{name}"),
            s::bool_ty(),
            s::tt(),
            s::app(s::app(s::var("base"), s::bool_ty()), fat_term(FAT_LEAVES)),
        );
        units.push(WorkUnit { name: name.clone(), imports: vec!["base".to_owned()], term });
        mid_names.push(name);
    }
    let mut body = s::tt();
    for name in mid_names.iter().rev() {
        body = s::ite(s::var(name), body, s::ff());
    }
    units.push(WorkUnit { name: "top".to_owned(), imports: mid_names, term: body });
    units
}

/// The interface-changing edit the GC phase applies to `base`: same
/// binder skeleton as `poly_id`, but it returns `Bool`, so every unit in
/// the diamond re-keys and the whole first blob generation goes stale.
fn signature_variant() -> cccc_source::Term {
    s::lam("A", s::star(), s::lam("x", s::var("A"), s::tt()))
}

/// Bytes currently held by the store's blobs and verified records.
fn store_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("store dir exists")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "art" || x == "vfy"))
        .map(|e| e.metadata().expect("store entries stat").len())
        .sum()
}

/// The counters a probe child reports, in the order it collects them.
const PROBE_COUNTERS: [&str; 6] =
    ["compiled", "disk_cached", "disk_hits", "sections_decoded", "sections_skipped", "bytes_read"];

/// Child-process entry point: one build against the store at `dir`,
/// summarized on one probe line. Every mode times 11 fresh sessions, each
/// rep paying the full restart path again; a `cold` rep's untimed set-up
/// empties the store, so every rep is cold and the last one leaves the
/// store populated for the later probes. The `full` wall time and
/// counters span the build and the decode of every unit's sections.
fn run_store_probe(dir: &str, mode: &str) {
    let units = store_workload();
    let setup = || {
        let mut session = store_session(&units, Path::new(dir));
        if mode == "cold" {
            session.wipe_store().expect("the store empties");
        }
        let before = session.store_stats().expect("session has a store");
        (session, before)
    };
    let runs = measure::runs(0, 11, setup, |(mut session, before)| {
        let report = session.build(2).expect("graph is valid");
        if mode == "full" {
            for unit in &units {
                let artifact = session.artifact(&unit.name).expect("every unit built");
                for section in [artifact.source_ty(), artifact.target(), artifact.target_ty()] {
                    section.expect("stored sections are intact");
                }
            }
        }
        (session, before, report)
    });
    let mut counters = Vec::new();
    for (_, (session, before, report)) in &runs {
        assert!(report.is_success(), "probe build failed: {}", report.summary());
        let store = session.store_stats().expect("session has a store").since(before);
        if mode != "cold" {
            // The headline counter gates, asserted on *every* rep: a
            // restart-warm lazy build answers the whole graph from blob
            // headers and verified records — zero sections decoded —
            // while the full decode reads all three sections of every
            // blob the build loaded.
            assert_eq!(report.compiled_count(), 0, "{mode} rep compiled: {}", report.summary());
            match mode {
                "warm" => assert_eq!(
                    store.sections_decoded, 0,
                    "lazy restart-warm build decoded term payloads"
                ),
                _ => assert_eq!(
                    store.sections_decoded,
                    3 * store.disk_hits,
                    "full decode must read every section of every blob"
                ),
            }
        }
        counters.push([
            report.compiled_count() as u64,
            report.disk_cached_count() as u64,
            store.disk_hits,
            store.sections_decoded,
            store.sections_skipped,
            store.bytes_read,
        ]);
        // Observation links (and therefore decodes) — checked for the
        // differential verdict, *after* the counters above were read.
        let observed = session.observe(root_of(&units)).expect("root links");
        assert_eq!(observed, Some(true), "{mode} probe observed the wrong value");
    }
    assert!(counters.windows(2).all(|w| w[0] == w[1]), "{mode} reps counted differently");
    let mut fields = vec![("wall_ns", measure::sample_field(runs.iter().map(|(ns, _)| *ns)))];
    fields.extend(PROBE_COUNTERS.iter().zip(counters[0]).map(|(key, n)| (*key, n.to_string())));
    println!("{}", measure::probe_line(&fields));
}

/// One probe child's summary: wall time over its reps and the counters
/// every rep reported alike.
struct ProbeNumbers {
    wall: Summary,
    counts: Vec<(&'static str, u64)>,
}

impl ProbeNumbers {
    fn count(&self, key: &str) -> u64 {
        self.counts.iter().find(|(k, _)| *k == key).map(|(_, count)| *count).expect("a counter")
    }

    fn json(&self) -> Json {
        let counts = self.counts.iter().map(|(key, count)| (*key, (*count).into()));
        obj([("wall_ns", self.wall.into())].into_iter().chain(counts))
    }
}

fn spawn_store_probe(dir: &Path, mode: &str) -> ProbeNumbers {
    let probe = measure::spawn_probe(STORE_PROBE_FLAG, &[dir.as_os_str(), mode.as_ref()]);
    let counts = PROBE_COUNTERS.iter().map(|&key| (key, probe.get(key))).collect();
    ProbeNumbers { wall: probe.summary("wall_ns"), counts }
}

/// The GC phase, gated (run in-process — the store is already
/// populated and the property is about files, not process boundaries).
fn measure_gc(dir: &Path, generation0_bytes: u64) -> Json {
    // The signature edit re-keys every unit: generation 0 goes entirely
    // stale, and the rebuild writes a full second generation beside it.
    let mut units = store_workload();
    let mut session = store_session(&units, dir);
    session.update_unit("base", &signature_variant()).expect("base exists");
    let report = session.build(2).expect("graph is valid");
    assert!(report.is_success(), "signature rebuild failed: {}", report.summary());
    // Every unit re-keys under the new interface — nothing is answered
    // by generation 0 — but each α-class compiles once: the other 13
    // middles wait for the first one's claim.
    assert_eq!(
        report.compiled_count(),
        3,
        "only α-class representatives recompile: {}",
        report.summary()
    );
    assert_eq!(report.compiled_count() + report.cached_count(), units.len());
    let peak_bytes = store_bytes(dir);
    let live_bytes = peak_bytes - generation0_bytes;

    // Sweep down to exactly the live bytes: the GC must evict all of
    // generation 0 (stale goes first) and nothing the graph can reach.
    session.set_store_budget(Some(StoreBudget { max_bytes: live_bytes }));
    let report = session.build(2).expect("graph is valid");
    assert!(report.is_success(), "budgeted rebuild failed: {}", report.summary());
    assert_eq!(report.compiled_count(), 0, "the budgeted build itself stays warm");
    let gc = report.gc.expect("budgeted build reports its sweep");
    let swept_bytes = store_bytes(dir);

    // A brand-new process over the swept store: zero compiles — the
    // sweep cost the reachable set nothing.
    let position = units.iter().position(|u| u.name == "base").expect("base exists");
    units[position].term = signature_variant();
    let mut fresh = store_session(&units, dir);
    let post = fresh.build(2).expect("graph is valid");
    assert!(post.is_success(), "post-GC restart failed: {}", post.summary());
    let observed = fresh.observe(root_of(&units)).expect("root links");
    assert_eq!(observed, Some(true), "post-GC observation diverged");

    assert!(gc.evicted >= 1, "the sweep evicted the stale generation");
    assert!(
        swept_bytes <= live_bytes,
        "the store stayed over budget after the sweep ({swept_bytes} > {live_bytes})"
    );
    assert_eq!(
        post.compiled_count(),
        0,
        "the sweep evicted reachable entries (the post-GC restart recompiled)"
    );
    assert_eq!(post.disk_cached_count(), 16, "the post-GC restart answered every unit from disk");
    obj([
        ("generation0_bytes", generation0_bytes.into()),
        ("peak_bytes", peak_bytes.into()),
        ("budget_bytes", live_bytes.into()),
        ("evicted", gc.evicted.into()),
        ("evicted_bytes", gc.evicted_bytes.into()),
        ("swept_bytes", swept_bytes.into()),
        ("post_gc_restart_compiled", post.compiled_count().into()),
        ("post_gc_restart_disk_cached", post.disk_cached_count().into()),
    ])
}

fn main() {
    if let Some(args) = measure::probe_args(STORE_PROBE_FLAG) {
        let [dir, mode] = args.as_slice() else { panic!("a store probe takes a dir and a mode") };
        return run_store_probe(dir, mode);
    }
    // `--quick` is accepted for symmetry with the sibling reports; the
    // probe reps are cheap enough to always run in full.
    let args = Args::parse("BENCH_store.json", &[], &[]);

    let dir = std::env::temp_dir().join(format!("cccc-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store dir is creatable");

    let cold = spawn_store_probe(&dir, "cold");
    let generation0_bytes = store_bytes(&dir);
    let warm = spawn_store_probe(&dir, "warm");
    let full = spawn_store_probe(&dir, "full");
    let gc = measure_gc(&dir, generation0_bytes);
    let _ = std::fs::remove_dir_all(&dir);

    // Gates. The probes already asserted per-rep counters and the
    // differential observation; here the cross-probe properties.
    let compiled = cold.count("compiled");
    assert_eq!(compiled, 3, "cold build compiles one representative per α-class, got {compiled}");
    assert_eq!(warm.count("compiled"), 0, "restart-warm build compiles nothing");
    assert_eq!(warm.count("disk_cached"), 16, "every unit answered from the store");
    assert_eq!(
        warm.count("sections_decoded"),
        0,
        "graph validation decoded zero term-payload sections"
    );
    assert_eq!(
        warm.count("sections_skipped"),
        3 * warm.count("disk_hits"),
        "every loaded section was deferred"
    );
    assert_eq!(
        full.count("sections_decoded"),
        3 * full.count("disk_hits"),
        "full decode reads every section"
    );
    let (warm_bytes, full_bytes) = (warm.count("bytes_read"), full.count("bytes_read"));
    assert!(
        warm_bytes < full_bytes,
        "lazy loads must touch fewer bytes than full decode ({warm_bytes} vs {full_bytes})"
    );
    let lazy_speedup = full.wall.median / warm.wall.median.max(1.0);
    println!("gates passed: lazy restart decode, full decode, GC sweep");
    measure::write_report(
        &args.output,
        env!("CARGO_BIN_NAME"),
        [
            ("unit", "nanoseconds of wall time over n fresh sessions in one probe process".into()),
            (
                "workload",
                format!(
                    "diamond_16 (14 alpha-equivalent middles, {FAT_LEAVES}-leaf if-tree bodies)"
                )
                .as_str()
                .into(),
            ),
            (
                "note",
                "Each probe is a fresh process over one shared store; cold reps each start \
                 from an empty store. warm is the product (v4 lazy section decode: loads \
                 read the 168-byte header, term payloads stay on disk); full_decode is the \
                 same build followed by reading + checksumming every section of every unit's \
                 artifact. The CI gates assert warm decodes zero sections, full decode reads \
                 all three sections of every loaded blob and more bytes than warm, and the \
                 budgeted GC sweeps the stale generation to under budget with zero recompiles \
                 on the next restart. The wall ratio of the medians is reported, not gated."
                    .into(),
            ),
            ("cold", cold.json()),
            ("restart_warm_lazy", warm.json()),
            ("restart_warm_full_decode", full.json()),
            ("lazy_speedup_vs_full_decode", lazy_speedup.into()),
            ("gc", gc),
        ],
    );
}
