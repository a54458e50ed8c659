//! The artifact-store benchmark: what the v3 lazy blob format and the
//! size-bounded GC buy, measured across real process boundaries and
//! asserted as CI gates.
//!
//! Three probe children (fresh processes, like `report_driver`'s restart
//! probes) share one on-disk store over the 16-unit diamond:
//!
//! * `cold` — populates the store from nothing;
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

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::session::Session;
use cccc_driver::workloads::{root_of, WorkUnit};
use cccc_driver::StoreBudget;
use cccc_source::builder as s;
use cccc_source::prelude;
use std::path::{Path, PathBuf};
use std::time::Instant;

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

fn session_over(units: &[WorkUnit], dir: &Path) -> Session {
    let mut session =
        Session::with_store(CompilerOptions::default(), dir).expect("store dir is creatable");
    for unit in units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        session.add_unit(&unit.name, &imports, &unit.term).expect("workload names are unique");
    }
    session
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

/// Child-process entry point: one build against the store at `dir`,
/// summarized on stdout. `warm` and `full` run best-of-reps over fresh
/// sessions (each rep pays the full restart path again); `cold` runs
/// once — a second rep would no longer be cold. The `full` wall time and
/// counters span the build and the decode of every unit's sections.
fn run_store_probe(dir: &str, mode: &str) {
    let units = store_workload();
    let reps: u32 = if mode == "cold" { 1 } else { 5 };
    let mut best_wall = u128::MAX;
    let mut summary = None;
    for _ in 0..reps {
        let mut session = session_over(&units, Path::new(dir));
        let before = session.store_stats().expect("session has a store");
        let started = Instant::now();
        let report = session.build(2).expect("graph is valid");
        if mode == "full" {
            for unit in &units {
                let artifact = session.artifact(&unit.name).expect("every unit built");
                for section in [artifact.source_ty(), artifact.target(), artifact.target_ty()] {
                    section.expect("stored sections are intact");
                }
            }
        }
        let wall_ns = started.elapsed().as_nanos();
        assert!(report.is_success(), "probe build failed: {}", report.summary());
        let store = session.store_stats().expect("session has a store").since(&before);
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
        if wall_ns < best_wall {
            best_wall = wall_ns;
            summary = Some((report.compiled_count(), report.disk_cached_count(), store));
        }
        // Observation links (and therefore decodes) — checked for the
        // differential verdict, *after* the counters above were read.
        let observed = session.observe(root_of(&units)).expect("root links");
        assert_eq!(observed, Some(true), "{mode} probe observed the wrong value");
    }
    let (compiled, disk_cached, store) = summary.expect("at least one rep ran");
    println!(
        "probe wall_ns={best_wall} compiled={compiled} disk_cached={disk_cached} \
         disk_hits={} sections_decoded={} sections_skipped={} bytes_read={}",
        store.disk_hits, store.sections_decoded, store.sections_skipped, store.bytes_read,
    );
}

/// One probe child's parsed summary line.
struct ProbeNumbers {
    wall_ns: u128,
    compiled: usize,
    disk_cached: usize,
    disk_hits: u64,
    sections_decoded: u64,
    sections_skipped: u64,
    bytes_read: u64,
}

fn spawn_store_probe(dir: &Path, mode: &str) -> ProbeNumbers {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .arg(STORE_PROBE_FLAG)
        .arg(dir)
        .arg(mode)
        .output()
        .expect("probe child spawns");
    assert!(
        output.status.success(),
        "probe child ({mode}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("probe "))
        .unwrap_or_else(|| panic!("probe child ({mode}) printed no summary:\n{stdout}"));
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|part| part.strip_prefix(&format!("{key}=")).map(str::to_owned))
            .unwrap_or_else(|| panic!("probe line lacks `{key}`: {line}"))
    };
    ProbeNumbers {
        wall_ns: field("wall_ns").parse().expect("wall_ns parses"),
        compiled: field("compiled").parse().expect("compiled parses"),
        disk_cached: field("disk_cached").parse().expect("disk_cached parses"),
        disk_hits: field("disk_hits").parse().expect("disk_hits parses"),
        sections_decoded: field("sections_decoded").parse().expect("sections_decoded parses"),
        sections_skipped: field("sections_skipped").parse().expect("sections_skipped parses"),
        bytes_read: field("bytes_read").parse().expect("bytes_read parses"),
    }
}

/// The GC phase's numbers (run in-process — the store is already
/// populated and the property is about files, not process boundaries).
struct GcNumbers {
    /// Store bytes after the cold population (generation 0, all live).
    generation0_bytes: u64,
    /// Store bytes after the signature edit's rebuild (both generations).
    peak_bytes: u64,
    /// The budget the sweep ran under: exactly the live bytes.
    budget_bytes: u64,
    /// Entries and bytes the sweep removed.
    evicted: u64,
    evicted_bytes: u64,
    /// Store bytes after the sweep.
    swept_bytes: u64,
    /// The fresh process over the swept store: must be fully warm.
    post_compiled: usize,
    post_disk_cached: usize,
}

fn measure_gc(dir: &Path, generation0_bytes: u64) -> GcNumbers {
    // The signature edit re-keys every unit: generation 0 goes entirely
    // stale, and the rebuild writes a full second generation beside it.
    let mut units = store_workload();
    let mut session = session_over(&units, dir);
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
    let mut fresh = session_over(&units, dir);
    let post = fresh.build(2).expect("graph is valid");
    assert!(post.is_success(), "post-GC restart failed: {}", post.summary());
    let observed = fresh.observe(root_of(&units)).expect("root links");
    assert_eq!(observed, Some(true), "post-GC observation diverged");

    GcNumbers {
        generation0_bytes,
        peak_bytes,
        budget_bytes: live_bytes,
        evicted: gc.evicted,
        evicted_bytes: gc.evicted_bytes,
        swept_bytes,
        post_compiled: post.compiled_count(),
        post_disk_cached: post.disk_cached_count(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(STORE_PROBE_FLAG) {
        let dir = args.get(1).expect("probe needs a store dir");
        let mode = args.get(2).expect("probe needs a mode");
        run_store_probe(dir, mode);
        return;
    }

    let mut positional: Option<PathBuf> = None;
    for arg in &args {
        match arg.as_str() {
            // Accepted for CLI symmetry with the sibling reports; the
            // probe reps are cheap enough to always run in full.
            "--quick" => {}
            other if !other.starts_with("--") => positional = Some(PathBuf::from(other)),
            other => panic!("unknown flag `{other}`"),
        }
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output: PathBuf = positional.unwrap_or_else(|| root.join("BENCH_store.json"));

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
    assert_eq!(
        cold.compiled, 3,
        "cold build compiles one representative per α-class, got {}",
        cold.compiled
    );
    assert_eq!(warm.compiled, 0, "restart-warm build compiles nothing");
    assert_eq!(warm.disk_cached, 16, "every unit answered from the store");
    assert_eq!(warm.sections_decoded, 0, "graph validation decoded zero term-payload sections");
    assert_eq!(warm.sections_skipped, 3 * warm.disk_hits, "every loaded section was deferred");
    assert_eq!(full.sections_decoded, 3 * full.disk_hits, "full decode reads every section");
    assert!(
        warm.bytes_read < full.bytes_read,
        "lazy loads must touch fewer bytes than full decode ({} vs {})",
        warm.bytes_read,
        full.bytes_read
    );
    let lazy_speedup = full.wall_ns as f64 / warm.wall_ns.max(1) as f64;
    assert!(gc.evicted >= 1, "the sweep evicted the stale generation");
    assert!(
        gc.swept_bytes <= gc.budget_bytes,
        "the store stayed over budget after the sweep ({} > {})",
        gc.swept_bytes,
        gc.budget_bytes
    );
    assert_eq!(
        gc.post_compiled, 0,
        "the sweep evicted reachable entries (the post-GC restart recompiled)"
    );
    assert_eq!(gc.post_disk_cached, 16, "the post-GC restart answered every unit from disk");

    println!(
        "gates passed: warm restart decodes 0 sections (lazy {lazy_speedup:.1}x vs full decode), \
         GC swept {} entries (-{}B) to {}B under a {}B budget with 0 recompiles after",
        gc.evicted, gc.evicted_bytes, gc.swept_bytes, gc.budget_bytes,
    );

    let json = render_json(&cold, &warm, &full, &gc, lazy_speedup);
    std::fs::write(&output, json).expect("write BENCH_store.json");
    println!("wrote {}", output.display());
}

/// Renders the measurements as JSON by hand (offline workspace, no
/// serialization dependency).
fn render_json(
    cold: &ProbeNumbers,
    warm: &ProbeNumbers,
    full: &ProbeNumbers,
    gc: &GcNumbers,
    lazy_speedup: f64,
) -> String {
    let probe = |p: &ProbeNumbers| {
        format!(
            "{{ \"wall_ns\": {}, \"compiled\": {}, \"disk_cached\": {}, \"disk_hits\": {}, \
             \"sections_decoded\": {}, \"sections_skipped\": {}, \"bytes_read\": {} }}",
            p.wall_ns,
            p.compiled,
            p.disk_cached,
            p.disk_hits,
            p.sections_decoded,
            p.sections_skipped,
            p.bytes_read,
        )
    };
    let mut out = String::from("{\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p cccc-bench --bin report_store\",\n");
    out.push_str("  \"unit\": \"nanoseconds of wall time (best over repetitions)\",\n");
    out.push_str(&format!(
        "  \"workload\": \"diamond_16 (14 alpha-equivalent middles, {FAT_LEAVES}-leaf if-tree bodies)\",\n"
    ));
    out.push_str(
        "  \"note\": \"Each probe is a fresh process over one shared store. warm is the \
         product (v3 lazy section decode: loads read the 168-byte header, term payloads stay \
         on disk); full_decode is the same build followed by reading + checksumming every \
         section of every unit's artifact. The CI gates assert warm decodes zero sections, \
         full decode reads all three sections of every loaded blob and more bytes than warm, \
         and the budgeted GC sweeps the stale generation to under budget with zero \
         recompiles on the next restart. The wall ratio is reported, not gated.\",\n",
    );
    out.push_str(&format!("  \"cold\": {},\n", probe(cold)));
    out.push_str(&format!("  \"restart_warm_lazy\": {},\n", probe(warm)));
    out.push_str(&format!("  \"restart_warm_full_decode\": {},\n", probe(full)));
    out.push_str(&format!("  \"lazy_speedup_vs_full_decode\": {lazy_speedup:.2},\n"));
    out.push_str(&format!(
        "  \"gc\": {{ \"generation0_bytes\": {}, \"peak_bytes\": {}, \"budget_bytes\": {}, \
         \"evicted\": {}, \"evicted_bytes\": {}, \"swept_bytes\": {}, \
         \"post_gc_restart\": {{ \"compiled\": {}, \"disk_cached\": {} }} }}\n",
        gc.generation0_bytes,
        gc.peak_bytes,
        gc.budget_bytes,
        gc.evicted,
        gc.evicted_bytes,
        gc.swept_bytes,
        gc.post_compiled,
        gc.post_disk_cached,
    ));
    out.push_str("}\n");
    out
}
