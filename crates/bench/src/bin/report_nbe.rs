//! Regenerates `BENCH_nbe.json` (repository root): head-to-head timings of
//! the substitution-based step engine against the NbE engine on the shared
//! workload corpus — normalization (CC and CC-CC), type checking (CC and
//! CC-CC), and the full compile pipeline — both engines timed in the same
//! run, each as a median with its spread.
//!
//! ```text
//! cargo run --release -p cccc-bench --bin report_nbe
//! cargo run --release -p cccc-bench --bin report_nbe -- --quick out.json
//! ```
//!
//! `--quick` cuts the repetition counts for CI smoke runs; an optional path
//! argument overrides the output location.
//!
//! The run doubles as the hash-consed term kernel's smoke check: it
//! **asserts** that type checking the CC-CC family on the NbE engine takes
//! the conversion identity fast path (same interned node ⇒ equal, no
//! traversal), and that translating `is_even_4x4` a second time on the same
//! thread interns zero new CC-CC nodes and returns the same root — if a
//! refactor ever reroutes the hot path around the kernel, or makes the
//! translation emit α-copies instead of shared nodes, this binary (and the
//! CI step running it) fails.

use cccc_bench::measure::{self, obj, Args, Json};
use cccc_bench::{church_workloads, conversion_workloads, Workload};
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_source as src;
use cccc_target as tgt;

/// Times the step engine's `step` against the NbE engine's `nbe`: one
/// report row, its speedup the ratio of the medians.
fn compare(
    name: String,
    (warmup, reps): (usize, usize),
    step: impl FnMut(),
    nbe: impl FnMut(),
) -> Json {
    let (step, nbe) = (measure::time(warmup, reps, step), measure::time(warmup, reps, nbe));
    obj([
        ("name", name.as_str().into()),
        ("step_ns", step.into()),
        ("nbe_ns", nbe.into()),
        ("speedup", (step.median / nbe.median.max(1.0)).into()),
    ])
}

fn main() {
    let args = Args::parse("BENCH_nbe.json", &[], &[]);
    // 101 timed runs put ten samples above the reported p90.
    let timing = if args.quick { (1, 11) } else { (5, 101) };

    let workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    // Type checking is measured on both families: Church arithmetic
    // (structure-heavy, conversions mostly α-trivial) and the
    // conversion-heavy family, where `[Conv]` has to normalize growing
    // type-level computations.
    let mut typecheck_workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    typecheck_workloads.extend(conversion_workloads(&[4, 6, 8, 10]));
    let mut comparisons: Vec<Json> = Vec::new();

    for workload in &workloads {
        let env = src::Env::new();
        comparisons.push(compare(
            format!("normalize_cc/{}", workload.name),
            timing,
            || drop(src::reduce::normalize_default(&env, &workload.term)),
            || drop(src::nbe::normalize_nbe_default(&env, &workload.term)),
        ));
    }

    for workload in &workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        comparisons.push(compare(
            format!("normalize_cccc/{}", workload.name),
            timing,
            || drop(tgt::reduce::normalize_default(&env, &translated)),
            || drop(tgt::nbe::normalize_nbe_default(&env, &translated)),
        ));
    }

    for workload in &typecheck_workloads {
        let env = src::Env::new();
        let infer = |engine| {
            src::typecheck::infer_with_engine(&env, &workload.term, engine).expect("well-typed");
        };
        comparisons.push(compare(
            format!("typecheck_cc/{}", workload.name),
            timing,
            || infer(src::equiv::Engine::Step),
            || infer(src::equiv::Engine::Nbe),
        ));
    }

    // The kernel's counters come from one untimed NbE pass over the CC-CC
    // type-checking family, before any of it is timed.
    let translated: Vec<tgt::Term> = typecheck_workloads.iter().map(Workload::translated).collect();
    let env = tgt::Env::new();
    let infer = |term: &tgt::Term, engine| {
        tgt::typecheck::infer_with_engine(&env, term, engine).expect("well-typed");
    };
    let before = tgt::equiv::conv_cache_stats();
    translated.iter().for_each(|term| infer(term, tgt::equiv::Engine::Nbe));
    let conv = tgt::equiv::conv_cache_stats().since(&before);
    assert!(
        conv.identity_hits > 0,
        "smoke check failed: the conversion identity fast path was never \
         exercised while type checking the conv_heavy/is_even CC-CC family \
         — the hot path no longer runs on the hash-consed kernel"
    );
    for (workload, term) in typecheck_workloads.iter().zip(&translated) {
        comparisons.push(compare(
            format!("typecheck_cccc/{}", workload.name),
            timing,
            || infer(term, tgt::equiv::Engine::Step),
            || infer(term, tgt::equiv::Engine::Nbe),
        ));
    }

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
    println!(
        "kernel smoke checks passed: identity fast path {} hits (memo {} hits) on one NbE pass \
         of the typecheck_cccc family; re-translating is_even_4x4 interned 0 new nodes",
        conv.identity_hits, conv.memo_hits
    );

    let compiler =
        |use_nbe| Compiler::with_options(CompilerOptions { use_nbe, ..CompilerOptions::default() });
    let (step_compiler, nbe_compiler) = (compiler(false), compiler(true));
    let mut pipeline_workloads: Vec<Workload> = church_workloads(&[2, 4]);
    pipeline_workloads.extend(conversion_workloads(&[6]));
    for workload in pipeline_workloads {
        comparisons.push(compare(
            format!("pipeline/{}", workload.name),
            timing,
            || drop(step_compiler.compile_closed(&workload.term).expect("compiles")),
            || drop(nbe_compiler.compile_closed(&workload.term).expect("compiles")),
        ));
    }

    measure::write_report(
        &args.output,
        env!("CARGO_BIN_NAME"),
        [
            (
                "unit",
                "nanoseconds per run over n timed runs after warm-up; speedup is the step \
                 median over the NbE median"
                    .into(),
            ),
            ("warmup_runs", timing.0.into()),
            (
                "kernel",
                obj([
                    ("typecheck_cccc_identity_fast_path_hits", conv.identity_hits.into()),
                    ("typecheck_cccc_conv_memo_hits", conv.memo_hits.into()),
                    ("retranslate_is_even_4x4_new_nodes", retranslate_misses.into()),
                ]),
            ),
            ("comparisons", Json::Arr(comparisons)),
        ],
    );
}
