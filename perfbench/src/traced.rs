//! The traced run: per-layer attribution of one operation, replayed by
//! calling each layer's public entry point under the benchmark's own
//! timers, plus counters read from real `build(1)`/`build(2)` reports.
//!
//! The replay follows the `build(1)` report of the same operation: a
//! unit is re-run through exactly the phases that build ran for it, a
//! disk-answered unit re-reads its blob and verdict record, and a
//! compiled unit re-writes them. Every layer's timer brackets its call
//! site for every unit, whether or not the layer had work for it, so a
//! layer that did nothing reads as the cost of skipping it.

use crate::stats::{median, ratio, Attribution, Tally};
use crate::workloads::Workload;
use cccc_core::pipeline::{CacheReport, Compiler, CompilerOptions, StoreStats};
use cccc_driver::query;
use cccc_driver::{Artifact, ArtifactStore, BuildReport, CacheTier, Session};
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::intern::ConvCacheStats;
use cccc_util::wire::Fingerprint;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The layers the replay attributes a traced operation to.
pub const LAYERS: [&str; 12] = [
    "parse",
    "session",
    "query",
    "store.open",
    "store.read",
    "store.write",
    "wire.decode",
    "wire.encode",
    "typecheck",
    "translate",
    "check",
    "verify",
];

/// Operations at one worker whose counters are reported: a fixed number,
/// so a seed reproduces them exactly.
const COUNTED_OPS: usize = 20;
/// Fewest traced iterations, whatever the time budget.
const MIN_ITERATIONS: usize = 12;

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Layer timings of one replayed operation.
struct Replay {
    attribution: Attribution,
    parse_nodes: usize,
    wire_words: usize,
}

/// Replays the operation `wl` just ran, whose `build(1)` report is
/// `report`. `inferred` memoizes check results by check key, standing in
/// for the session's check memo.
fn replay(
    wl: &mut dyn Workload,
    report: &BuildReport,
    inferred: &mut HashMap<Fingerprint, tgt::Term>,
) -> Result<Replay, String> {
    let options = CompilerOptions::default();
    let compiler = Compiler::with_options(options);
    let mut a = Attribution::default();
    let texts: Vec<(usize, String)> =
        wl.parsed().into_iter().map(|(u, text)| (u, text.to_owned())).collect();
    let outer = Instant::now();

    let started = Instant::now();
    let parsed: Vec<(usize, src::Term)> = texts
        .iter()
        .map(|(u, text)| src::parse::parse_term(text).map(|term| (*u, term)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    a.add("parse", ms_since(started));
    let parse_nodes = parsed.iter().map(|(_, term)| term.size()).sum();

    let started = Instant::now();
    let store = match wl.store_dir() {
        Some(dir) => Some(ArtifactStore::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    a.add("store.open", ms_since(started));

    let started = Instant::now();
    let graph = wl.prepared().graph.clone();
    if wl.fresh_session() {
        let mut session = Session::new(options);
        for (u, term) in &parsed {
            let spec = &graph.units[*u];
            let imports: Vec<&str> = spec.imports.iter().map(String::as_str).collect();
            session.add_unit(&spec.name, &imports, term).map_err(|e| e.to_string())?;
        }
    } else {
        for (u, term) in &parsed {
            wl.session_mut().update_unit(&graph.units[*u].name, term).map_err(|e| e.to_string())?;
        }
    }
    a.add("session", ms_since(started));

    let session = wl.session();
    let plan = session.graph().plan().map_err(|e| e.to_string())?;
    let mut wire_words = 0usize;
    for (&u, unit_report) in plan.order.iter().zip(&report.units) {
        let unit = session.graph().unit_at(u);
        debug_assert_eq!(unit.name, unit_report.name);
        let runs = unit_report.phase_runs;
        let artifact_of = |name: &str| {
            session.artifact(name).ok_or_else(|| format!("unit `{name}` has no artifact"))
        };

        let started = Instant::now();
        let mut dep_fp = Fingerprint::default();
        for &d in &plan.transitive[u] {
            let dep = session.graph().unit_at(d);
            dep_fp =
                query::fold_dep(dep_fp, &dep.name, artifact_of(&dep.name)?.interface_fingerprint());
        }
        let artifact_key = query::artifact_key(unit.source_alpha, dep_fp, &options);
        a.add("query", ms_since(started));

        let started = Instant::now();
        if let (Some(store), Some(CacheTier::Disk)) = (&store, unit_report.cached_from) {
            if let Some(loaded) = store.load(artifact_key) {
                let key = query::verify_key(
                    unit.source_alpha,
                    dep_fp,
                    loaded.output_fingerprint(),
                    &options,
                );
                store.load_verified(key);
            }
        }
        a.add("store.read", ms_since(started));

        // The unit's inputs, decoded as the worker decodes them; a unit
        // re-checked against a cached artifact also decodes its terms.
        let started = Instant::now();
        let mut inputs = None;
        let mut cached_target = None;
        if runs.any() {
            let term = src::wire::decode(&unit.source).map_err(|e| e.to_string())?;
            wire_words += unit.source.len();
            let mut env = src::Env::new();
            for &d in &plan.transitive[u] {
                let dep = session.graph().unit_at(d);
                let wire = artifact_of(&dep.name)?.source_ty()?;
                wire_words += wire.len();
                env.push_assumption(
                    dep.symbol,
                    src::wire::decode(&wire).map_err(|e| e.to_string())?,
                );
            }
            if !runs.translate {
                let artifact = artifact_of(&unit.name)?;
                let decode = |wire: cccc_util::wire::WireTerm| {
                    tgt::wire::decode(&wire).map_err(|e| e.to_string())
                };
                cached_target = Some((
                    decode(artifact.target()?)?,
                    decode(artifact.target_ty()?)?,
                    artifact.output_fingerprint(),
                ));
            }
            inputs = Some((env, term));
        }
        a.add("wire.decode", ms_since(started));

        let started = Instant::now();
        let mut source_type = None;
        if let (true, Some((env, term))) = (runs.typecheck, &inputs) {
            source_type = Some(compiler.phase_typecheck(env, term).map_err(|e| e.to_string())?.0);
        }
        a.add("typecheck", ms_since(started));

        let started = Instant::now();
        let mut translated = None;
        if let (Some((env, term)), Some(ty)) = (&inputs, &source_type) {
            if runs.translate {
                let (target, target_ty, _) =
                    compiler.phase_translate(env, term, ty).map_err(|e| e.to_string())?;
                translated = Some((target, target_ty));
            }
        }
        a.add("translate", ms_since(started));

        let started = Instant::now();
        let mut fresh = None;
        if let (Some(ty), Some((target, target_ty))) = (&source_type, &translated) {
            let interface = src::wire::fingerprint_alpha(ty);
            let output = interface
                .combine(tgt::wire::fingerprint_alpha(target))
                .combine(tgt::wire::fingerprint_alpha(target_ty));
            let artifact = Artifact::new(
                src::wire::encode(ty),
                tgt::wire::encode(target),
                tgt::wire::encode(target_ty),
                interface,
                output,
            );
            wire_words += artifact.target_words();
            fresh = Some((artifact, output));
        }
        a.add("wire.encode", ms_since(started));

        let (target, output) = match (&translated, &fresh, &cached_target) {
            (Some((target, target_ty)), Some((_, output)), _) => {
                (Some((target, target_ty)), *output)
            }
            (_, _, Some((target, target_ty, output))) => (Some((target, target_ty)), *output),
            _ => (None, Fingerprint::default()),
        };
        let check_key = query::check_key(output, dep_fp, &options);

        let started = Instant::now();
        let mut target_env = None;
        if let (true, Some((env, _)), Some((target, _))) = (runs.check, &inputs, target) {
            let (checked_env, ty, _) =
                compiler.phase_check(env, target).map_err(|e| e.to_string())?;
            target_env = Some(checked_env);
            inferred.insert(check_key, ty);
        }
        a.add("check", ms_since(started));

        if let (true, None, Some((env, _)), Some((target, _))) =
            (runs.verify, inferred.get(&check_key), &inputs, target)
        {
            // Checked in an earlier build the replay did not see: recover
            // the inferred type outside the layer timers.
            let (_, ty, _) = compiler.phase_check(env, target).map_err(|e| e.to_string())?;
            inferred.insert(check_key, ty);
        }

        let started = Instant::now();
        if let (true, Some((env, term)), Some((_, target_ty)), Some(ty)) =
            (runs.verify, &inputs, target, inferred.get(&check_key))
        {
            compiler
                .phase_verify(env, term, target_env.as_ref(), ty, target_ty)
                .map_err(|e| e.to_string())?;
        }
        a.add("verify", ms_since(started));

        let started = Instant::now();
        if let Some(store) = &store {
            if let Some((artifact, _)) = &fresh {
                store.save(artifact_key, artifact);
            }
            if let (true, Some(ty)) = (runs.verify, inferred.get(&check_key)) {
                let key = query::verify_key(unit.source_alpha, dep_fp, output, &options);
                store.save_verified(key, check_key, tgt::wire::fingerprint_alpha(ty));
            }
        }
        a.add("store.write", ms_since(started));
    }
    a.total_ms = ms_since(outer);
    Ok(Replay { attribution: a, parse_nodes, wire_words })
}

/// Summed interner and conversion-memo activity of the reports' units.
fn cache_totals(reports: &[BuildReport]) -> CacheReport {
    let mut total = CacheReport::default();
    for caches in reports.iter().flat_map(|r| &r.units).filter_map(|u| u.caches.as_ref()) {
        total.source_intern.hits += caches.source_intern.hits;
        total.source_intern.misses += caches.source_intern.misses;
        total.target_intern.hits += caches.target_intern.hits;
        total.target_intern.misses += caches.target_intern.misses;
        for (sum, unit) in [
            (&mut total.source_conv, &caches.source_conv),
            (&mut total.target_conv, &caches.target_conv),
        ] {
            sum.identity_hits += unit.identity_hits;
            sum.memo_hits += unit.memo_hits;
            sum.memo_misses += unit.memo_misses;
        }
    }
    total
}

fn conv_hit_ratio(stats: &ConvCacheStats) -> f64 {
    let hits = (stats.identity_hits + stats.memo_hits) as f64;
    ratio(hits, hits + stats.memo_misses as f64)
}

/// Check runs per distinct α-class compiled: units that ran a phase,
/// grouped by artifact key (α-invariant source ⊕ dependency interfaces).
fn runs_per_alpha_class(report: &BuildReport) -> Option<f64> {
    let classes: HashSet<Fingerprint> =
        report.units.iter().filter(|u| u.phase_runs.any()).map(|u| u.fingerprint).collect();
    (!classes.is_empty()).then(|| report.queries.check as f64 / classes.len() as f64)
}

/// Per-layer metrics of the traced run, by name.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
}

/// Alternates real `build(1)` and `build(2)` operations with replays of
/// the `build(1)` one until `seconds` have passed.
pub fn run(wl: &mut dyn Workload, seconds: f64) -> Result<Traced, String> {
    let root = wl.prepared().root().to_owned();
    let expected = wl.prepared().expected;
    let mut tally = Tally::default();
    let mut inferred = HashMap::new();
    // Per-iteration samples by name; each metric is a sample's median.
    let mut samples: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut counted: Vec<BuildReport> = Vec::new();
    let mut sections_at_link = 0u64;
    let started = Instant::now();
    let mut iteration = 0;
    while iteration < MIN_ITERATIONS || started.elapsed().as_secs_f64() < seconds {
        iteration += 1;
        let one = wl.op(1)?;
        let replayed = replay(wl, &one.report, &mut inferred)?;
        // Sizing the store walks its directory: only while counting.
        let counting = counted.len() < COUNTED_OPS;
        let store_before = counting.then(|| wl.session().store_stats()).flatten();
        let t = Instant::now();
        let linked = wl.session().link(&root).map_err(|e| e.to_string())?;
        let link_ms = ms_since(t);
        let t = Instant::now();
        let verdict = cccc_core::link::observe_target(&linked);
        let eval_ms = ms_since(t);
        if let (Some(before), Some(after)) = (store_before, wl.session().store_stats()) {
            sections_at_link += after.since(&before).sections_decoded;
        }
        tally.record(one.complete && verdict == Some(expected));

        let two = wl.op(2)?;
        let verdict = wl.session().observe(&root).map_err(|e| e.to_string())?;
        tally.record(two.complete && verdict == Some(expected));

        let a = &replayed.attribution;
        let r2 = &two.report;
        let wall_ns = r2.wall_time.as_nanos() as f64;
        let busy_ns: f64 = r2.units.iter().map(|u| u.duration.as_nanos() as f64).sum();
        let mut record =
            |name: &'static str, value: f64| samples.entry(name).or_default().push(value);
        for layer in LAYERS {
            record(layer, a.get(layer));
        }
        record("traced", a.total_ms);
        record("other", a.other_ms());
        record("nodes_per_ms", ratio(replayed.parse_nodes as f64, a.get("parse")));
        record("wire_words", replayed.wire_words as f64);
        record("link", link_ms);
        record("eval", eval_ms);
        record("op1", one.ms);
        record("op2", two.ms);
        record("phase1", one.report.phase_totals().total_ns() as f64);
        record("phase2", r2.phase_totals().total_ns() as f64);
        record("gap", ratio(wall_ns, r2.critical_path_ns as f64));
        record("idle", (r2.workers as f64 * wall_ns - busy_ns) / 1e6);
        record("cache_hits", r2.cache.hits as f64);
        record("cache_misses", r2.cache.misses as f64);
        record("coalesced", r2.cache.coalesced as f64);
        if let Some(x) = runs_per_alpha_class(r2) {
            record("per_class", x);
        }
        if counting {
            counted.push(one.report);
        }
    }

    let med = |name: &str| samples.get(name).map_or(0.0, |v| median(v));
    // Counts: per operation, over the first COUNTED_OPS one-worker builds.
    let ops = counted.len() as f64;
    let per_op = |f: &dyn Fn(&BuildReport) -> f64| counted.iter().map(f).sum::<f64>() / ops;
    let store = |f: &dyn Fn(&StoreStats) -> u64| {
        per_op(&|r: &BuildReport| r.store.as_ref().map_or(0, f) as f64)
    };
    let caches = cache_totals(&counted);
    let intern_hits = (caches.source_intern.hits + caches.target_intern.hits) as f64;
    let intern_misses = (caches.source_intern.misses + caches.target_intern.misses) as f64;
    let phase_runs = per_op(&|r| r.queries.total() as f64);
    let units = per_op(&|r| r.units.len() as f64);
    let out_words = |r: &BuildReport| {
        r.units.iter().filter(|u| u.phase_runs.translate).map(|u| u.target_words).sum::<usize>()
    };

    println!(
        "traced run: {iteration} iterations; median operation {:.3} ms at 1 worker, {:.3} ms at 2",
        med("op1"),
        med("op2")
    );
    let phase_sum = med("typecheck") + med("translate") + med("check") + med("verify");
    let metrics = vec![
        ("parse.ms", med("parse")),
        ("parse.nodes_per_ms", med("nodes_per_ms")),
        ("session.ms", med("session")),
        ("typecheck.ms", med("typecheck")),
        ("typecheck.conv_memo_hit_ratio", conv_hit_ratio(&caches.source_conv)),
        ("translate.ms", med("translate")),
        ("translate.out_words", per_op(&|r| out_words(r) as f64)),
        ("check.ms", med("check")),
        ("check.conv_memo_hit_ratio", conv_hit_ratio(&caches.target_conv)),
        ("verify.ms", med("verify")),
        ("verify.share", ratio(med("verify"), phase_sum)),
        ("query.ms", med("query")),
        ("query.typecheck_runs", per_op(&|r| r.queries.typecheck as f64)),
        ("query.translate_runs", per_op(&|r| r.queries.translate as f64)),
        ("query.check_runs", per_op(&|r| r.queries.check as f64)),
        ("query.verify_runs", per_op(&|r| r.queries.verify as f64)),
        ("query.runs_per_alpha_class", med("per_class")),
        ("query.cutoff_ratio", 1.0 - ratio(phase_runs, 4.0 * units)),
        ("cache.hits", med("cache_hits")),
        ("cache.misses", med("cache_misses")),
        ("cache.coalesced", med("coalesced")),
        ("store.open_ms", med("store.open")),
        ("store.read_ms", med("store.read")),
        ("store.write_ms", med("store.write")),
        ("store.bytes_read", store(&|s| s.bytes_read)),
        ("store.bytes_written", store(&|s| s.bytes_written)),
        ("store.sections_decoded", store(&|s| s.sections_decoded) + sections_at_link as f64 / ops),
        ("store.retries", store(&|s| s.retries)),
        ("wire.encode_ms", med("wire.encode")),
        ("wire.decode_ms", med("wire.decode")),
        ("wire.words", med("wire_words")),
        ("sched.speedup_2w", ratio(med("op1"), med("op2"))),
        ("sched.phase_inflation_2w", ratio(med("phase2"), med("phase1"))),
        ("sched.gap_vs_critical_path", med("gap")),
        ("sched.idle_ms", med("idle")),
        ("intern.hit_ratio", ratio(intern_hits, intern_hits + intern_misses)),
        ("intern.nodes", intern_misses / ops),
        ("link.ms", med("link")),
        ("eval.ms", med("eval")),
        ("other.ms", med("other")),
        ("trace.overhead", ratio(med("traced"), med("op1"))),
    ];
    Ok(Traced { metrics, tally })
}
