//! Regenerates `BENCH_intern.json` (repository root): the effect of the
//! hash-consed term kernel (interned handles, cached metadata, memoized
//! conversion and `[Code]` typing) on the NbE-engine numbers, workload by
//! workload, against the pre-kernel baselines checked in as
//! `BENCH_nbe.json`.
//!
//! ```text
//! cargo run --release -p cccc-bench --bin report_intern
//! cargo run --release -p cccc-bench --bin report_intern -- --quick out.json
//! ```
//!
//! `--quick` cuts the repetition counts for CI smoke runs; an optional
//! path argument overrides the output location.
//!
//! The run doubles as the kernel's smoke check: after driving the
//! conversion-heavy `typecheck_cccc` family it **asserts** that the
//! equivalence checker's identity fast path (same interned node ⇒ equal,
//! no traversal) actually fired, and that translating `is_even_4x4` a
//! second time on the same thread interns zero new CC-CC nodes and
//! returns the same root — if a refactor ever reroutes the hot path around
//! the kernel, or makes the translation emit α-copies instead of shared
//! nodes, this binary (and the CI step running it) fails.

use cccc_bench::{church_workloads, conversion_workloads, Workload};
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_source as src;
use cccc_target as tgt;
use std::path::PathBuf;
use std::time::Instant;

/// One workload's baseline-vs-kernel measurement.
struct Comparison {
    name: String,
    /// The pre-kernel NbE time from `BENCH_nbe.json`, if that workload
    /// exists there.
    baseline_nbe_ns: Option<u128>,
    /// The post-kernel NbE time measured by this run.
    intern_ns: u128,
}

impl Comparison {
    fn speedup(&self) -> Option<f64> {
        self.baseline_nbe_ns.map(|b| b as f64 / self.intern_ns.max(1) as f64)
    }
}

/// Times `body` as the best of `reps` means over `iters` runs each (after
/// one warm-up per rep). Best-of-means is markedly more stable than a
/// single mean on shared machines, which is what gates the regression
/// criteria.
fn best_mean_ns(reps: u32, iters: u32, mut body: impl FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        body();
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        best = best.min(start.elapsed().as_nanos() / u128::from(iters));
    }
    best
}

/// Extracts `(name, nbe_ns)` pairs from the checked-in `BENCH_nbe.json`
/// (the workspace is offline and carries no JSON dependency; the file's
/// line format is fixed by `report_nbe`).
fn parse_baseline(text: &str) -> Vec<(String, u128)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name_at) = line.find("\"name\": \"") else { continue };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else { continue };
        let name = &rest[..name_end];
        let Some(nbe_at) = line.find("\"nbe_ns\": ") else { continue };
        let rest = &line[nbe_at + 10..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(ns) = digits.parse::<u128>() {
            out.push((name.to_owned(), ns));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let output: PathBuf = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("BENCH_intern.json"));
    let (reps, iters): (u32, u32) = if quick { (2, 3) } else { (7, 20) };

    let baseline_text = std::fs::read_to_string(root.join("BENCH_nbe.json")).unwrap_or_default();
    let baseline = parse_baseline(&baseline_text);
    let baseline_for = |name: &str| baseline.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns);

    let mut comparisons: Vec<Comparison> = Vec::new();
    let mut record = |name: String, intern_ns: u128, baseline_nbe_ns: Option<u128>| {
        let c = Comparison { name, baseline_nbe_ns, intern_ns };
        let speedup = c.speedup().map_or_else(|| "     (new)".to_owned(), |s| format!("{s:>9.2}x"));
        let base = c.baseline_nbe_ns.map_or_else(|| "-".to_owned(), |b| b.to_string());
        println!(
            "{:<40} baseline {:>10} ns   kernel {:>10} ns   speedup {speedup}",
            c.name, base, c.intern_ns
        );
        comparisons.push(c);
    };

    let workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    for workload in &workloads {
        let env = src::Env::new();
        let name = format!("normalize_cc/{}", workload.name);
        let ns = best_mean_ns(reps, iters, || {
            src::nbe::normalize_nbe_default(&env, &workload.term);
        });
        record(name.clone(), ns, baseline_for(&name));
    }
    for workload in &workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        let name = format!("normalize_cccc/{}", workload.name);
        let ns = best_mean_ns(reps, iters, || {
            tgt::nbe::normalize_nbe_default(&env, &translated);
        });
        record(name.clone(), ns, baseline_for(&name));
    }

    let mut typecheck_workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    typecheck_workloads.extend(conversion_workloads(&[4, 6, 8, 10]));
    for workload in &typecheck_workloads {
        let env = src::Env::new();
        let name = format!("typecheck_cc/{}", workload.name);
        let ns = best_mean_ns(reps, iters, || {
            src::typecheck::infer_with_engine(&env, &workload.term, src::equiv::Engine::Nbe)
                .expect("well-typed");
        });
        record(name.clone(), ns, baseline_for(&name));
    }

    // The CC-CC type-checking family is where the kernel has to prove
    // itself — and where the identity fast path must demonstrably fire.
    let stats_before = tgt::equiv::conv_cache_stats();
    for workload in &typecheck_workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        let name = format!("typecheck_cccc/{}", workload.name);
        let ns = best_mean_ns(reps, iters, || {
            tgt::typecheck::infer_with_engine(&env, &translated, tgt::equiv::Engine::Nbe)
                .expect("well-typed");
        });
        record(name.clone(), ns, baseline_for(&name));
    }
    let stats_after = tgt::equiv::conv_cache_stats();
    let identity_hits = stats_after.identity_hits - stats_before.identity_hits;
    let memo_hits = stats_after.memo_hits - stats_before.memo_hits;
    assert!(
        identity_hits > 0,
        "smoke check failed: the conversion identity fast path was never \
         exercised while type checking the conv_heavy/is_even CC-CC family \
         — the hot path no longer runs on the hash-consed kernel"
    );
    println!(
        "identity fast path: {identity_hits} hits, memo: {memo_hits} hits \
         across the typecheck_cccc family (smoke check passed)"
    );

    // Every code block binds the one shared environment parameter, so a
    // second translation of a program on the same thread is the first
    // one's nodes: the interner allocates nothing new.
    let is_even_4x4 = church_workloads(&[4]).remove(0);
    let first = is_even_4x4.translated();
    let before = tgt::ast::intern_stats();
    let second = is_even_4x4.translated();
    let retranslate_misses = tgt::ast::intern_stats().since(&before).misses;
    assert!(
        retranslate_misses == 0 && first == second,
        "smoke check failed: translating is_even_4x4 again interned \
         {retranslate_misses} new CC-CC nodes — the translation no longer \
         reproduces identical nodes for identical input"
    );
    println!("re-translating is_even_4x4: 0 new nodes, same root (smoke check passed)");

    let nbe_compiler =
        Compiler::with_options(CompilerOptions { use_nbe: true, ..CompilerOptions::default() });
    let mut pipeline_workloads: Vec<Workload> = church_workloads(&[2, 4]);
    pipeline_workloads.extend(conversion_workloads(&[6]));
    for workload in pipeline_workloads {
        let name = format!("pipeline/{}", workload.name);
        let ns = best_mean_ns(reps, iters, || {
            nbe_compiler.compile_closed(&workload.term).expect("compiles");
        });
        record(name.clone(), ns, baseline_for(&name));
    }

    let json = render_json(&comparisons, reps, iters, identity_hits, memo_hits, retranslate_misses);
    std::fs::write(&output, json).expect("write BENCH_intern.json");
    println!("\nwrote {}", output.display());
}

/// Renders the comparisons as JSON by hand (offline workspace, no
/// serialization dependency).
fn render_json(
    comparisons: &[Comparison],
    reps: u32,
    iters: u32,
    identity_hits: u64,
    memo_hits: u64,
    retranslate_misses: u64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"generated_by\": \"cargo run --release -p cccc-bench --bin report_intern\",\n",
    );
    out.push_str("  \"unit\": \"nanoseconds per run (best mean over repetitions)\",\n");
    out.push_str("  \"baseline\": \"nbe_ns from BENCH_nbe.json (pre-kernel)\",\n");
    out.push_str(&format!("  \"repetitions\": {reps},\n"));
    out.push_str(&format!("  \"iterations_per_repetition\": {iters},\n"));
    out.push_str(&format!("  \"typecheck_cccc_identity_fast_path_hits\": {identity_hits},\n"));
    out.push_str(&format!("  \"typecheck_cccc_conv_memo_hits\": {memo_hits},\n"));
    out.push_str(&format!("  \"retranslate_is_even_4x4_new_nodes\": {retranslate_misses},\n"));
    out.push_str("  \"comparisons\": [\n");
    for (index, c) in comparisons.iter().enumerate() {
        let baseline = c.baseline_nbe_ns.map_or_else(|| "null".to_owned(), |b| b.to_string());
        let speedup = c.speedup().map_or_else(|| "null".to_owned(), |s| format!("{s:.2}"));
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"baseline_nbe_ns\": {}, \"intern_ns\": {}, \
             \"speedup\": {} }}{}\n",
            c.name,
            baseline,
            c.intern_ns,
            speedup,
            if index + 1 == comparisons.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
