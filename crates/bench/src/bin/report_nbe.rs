//! Regenerates `BENCH_nbe.json` (repository root): the §7 experiments
//! E2–E14 timed on this implementation, each as a median with its spread.
//!
//! - `comparisons`: the substitution-based step engine against the NbE
//!   engine, both timed in the same run, on normalization (CC and CC-CC;
//!   the step column is E2 and E5), type checking (CC and CC-CC; the NbE
//!   column's Church rows are E3 and E6) and the full compile pipeline
//!   (the NbE column is `Compiler::compile_closed`, E12; the step column
//!   is the same four phases composed here on the step engine).
//! - `experiments`: the rest of E3–E13: type checking the corpus cold
//!   (E3, E6), the model translation and its Lemma 4.6
//!   checker (E7), the translation (E8), the Lemma 5.1, 5.2 and 5.4
//!   checkers (E9–E11), the typecheck-and-translate half of the pipeline
//!   (E12), and both paths of Theorem 5.7 with its checker (E13).
//! - `typecheck_cccc_over_cc`: E6 ÷ E3, the median time to type check
//!   each workload's translation over the time to type check the workload.
//!   The corpus entry compares cold checks, each repetition on a fresh
//!   thread, so no memo answers a check an earlier repetition made; the
//!   Church and `conv_heavy_n` entries repeat their checks on one thread
//!   and compare warm ones. Each entry's `checks` field says which.
//! - `capture_depth`: E14, running towers of 2, 5 and 8 nested closures,
//!   each capturing every enclosing binder, and capture-free control
//!   towers, in CC and CC-CC: the time, the exact reduction cost and the
//!   code size.
//!
//! ```text
//! cargo run --release -p cccc-bench --bin report_nbe
//! cargo run --release -p cccc-bench --bin report_nbe -- --quick out.json
//! ```
//!
//! `--quick` cuts the repetition counts for CI smoke runs; an optional path
//! argument overrides the output location.
//!
//! The run doubles as a smoke check. Every checker it times must return
//! `Ok`, and every E14 tower must translate each λ to exactly one closure.
//! It also **asserts** that type checking the CC-CC family on the NbE
//! engine takes the hash-consed kernel's conversion identity fast path
//! (same interned node ⇒ equal, no traversal), and that translating
//! `is_even_4x4` a second time on the same thread interns zero new CC-CC
//! nodes and returns the same root, and that translating it right after
//! type-checking it, on a fresh thread, misses the CC `[Lam]` memo 0 times
//! — if a refactor ever reroutes the hot path around the kernel, makes the
//! translation emit α-copies instead of shared nodes, or makes it
//! re-infer λs the type check derived, this binary (and the CI step
//! running it) fails.

use cccc_bench::measure::{self, obj, Args, Json, Summary};
use cccc_bench::{church_workloads, conversion_workloads, corpus_workloads, report, Workload};
use cccc_bench::{nested_capture_workloads, nested_closed_workloads};
use cccc_core::link;
use cccc_core::pipeline::Compiler;
use cccc_core::translate::{translate, translate_env};
use cccc_core::verify::{check_coherence, check_compositionality};
use cccc_core::verify::{check_reduction_preservation, check_separate_compilation};
use cccc_model::translate::model;
use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::prelude;
use cccc_target as tgt;
use cccc_util::fuel::Fuel;
use cccc_util::Symbol;

/// Warm-up runs, then timed runs.
type Timing = (usize, usize);

/// The stack of each cold repetition's thread, as large as a build
/// worker's.
const COLD_STACK_BYTES: usize = 8 << 20;

/// Times the step engine's `step` against the NbE engine's `nbe` into one
/// row of `comparisons`, its speedup the ratio of the medians; returns the
/// NbE timing.
fn compare(
    comparisons: &mut Vec<Json>,
    name: String,
    (warmup, reps): Timing,
    step: impl FnMut(),
    nbe: impl FnMut(),
) -> Summary {
    let (step, nbe) = (measure::time(warmup, reps, step), measure::time(warmup, reps, nbe));
    comparisons.push(obj([
        ("name", name.as_str().into()),
        ("step_ns", step.into()),
        ("nbe_ns", nbe.into()),
        ("speedup", (step.median / nbe.median.max(1.0)).into()),
    ]));
    nbe
}

/// [`Compiler::compile_closed`]'s phases on the step engine: type check,
/// translate, check the translation, and Theorem 5.6's conversion, all by
/// the paper's reduction and equivalence rules instead of NbE.
fn compile_closed_step(term: &src::Term) {
    let env = src::Env::new();
    let ty = src::typecheck::infer_with_engine(&env, term, src::equiv::Engine::Step)
        .expect("well-typed");
    let (target, target_ty, _) =
        Compiler::new().phase_translate(&env, term, &ty).expect("translates");
    let target_env = translate_env(&env).expect("translates");
    let inferred =
        tgt::typecheck::infer_with_engine(&target_env, &target, tgt::equiv::Engine::Step)
            .expect("the translation is well-typed");
    let preserved =
        tgt::equiv::equiv_spec(&target_env, &inferred, &target_ty, &mut Fuel::default());
    assert_eq!(preserved, Ok(true), "type preservation fails on the step engine");
}

/// One row of `experiments`.
fn row(experiment: &str, name: &str, ns: Summary) -> Json {
    obj([("experiment", experiment.into()), ("name", name.into()), ("ns", ns.into())])
}

/// Times `check` once per repetition, each on a fresh thread whose
/// interners and memos start empty; `build` makes the checked input on
/// that thread, untimed.
fn cold<I: 'static>(reps: usize, build: fn() -> I, check: fn(&I)) -> Summary {
    Summary::of((0..reps).map(|_| {
        std::thread::Builder::new()
            .stack_size(COLD_STACK_BYTES)
            .spawn(move || {
                let input = build();
                measure::timed(|| check(&input)).0
            })
            .expect("spawns a cold-check thread")
            .join()
            .expect("a cold check panicked")
    }))
}

/// One row of `typecheck_cccc_over_cc`; the CC median is the base, and
/// `checks` says whether both medians are of cold or of warm checks.
fn typecheck_overhead(workload: &str, checks: &str, cc_ns: f64, cccc_ns: f64) -> Json {
    obj([
        ("workload", workload.into()),
        ("checks", checks.into()),
        ("cc_ns", cc_ns.into()),
        ("cccc_ns", cccc_ns.into()),
        ("cccc_over_cc", (cccc_ns / cc_ns).into()),
    ])
}

/// The `experiments` rows, with the medians of E3's and E6's corpus rows.
/// Those two are cold checks, `cold_reps` of each (§7's cost of
/// re-checking converted code, which a warm repetition would answer from
/// the `[Lam]` and `[Code]` memos instead).
fn experiments((warmup, reps): Timing, cold_reps: usize) -> (Vec<Json>, f64, f64) {
    let mut rows = Vec::new();
    let (src_env, tgt_env) = (src::Env::new(), tgt::Env::new());
    let corpus = corpus_workloads();
    let translated: Vec<tgt::Term> = corpus.iter().map(Workload::translated).collect();

    let cc = cold(cold_reps, corpus_workloads, |corpus| {
        for w in corpus {
            src::typecheck::infer(&src::Env::new(), &w.term).expect("the corpus is well-typed");
        }
    });
    rows.push(row("E3", "typecheck_cc/corpus", cc));
    let translate_corpus = || corpus_workloads().iter().map(Workload::translated).collect();
    let cccc = cold(cold_reps, translate_corpus, |translated: &Vec<tgt::Term>| {
        for term in translated {
            tgt::typecheck::infer(&tgt::Env::new(), term)
                .expect("the translated corpus is well-typed");
        }
    });
    rows.push(row("E6", "typecheck_cccc/corpus", cccc));

    let ns = measure::time(warmup, reps, || translated.iter().map(model).collect::<Vec<_>>());
    rows.push(row("E7", "model/corpus", ns));
    for w in church_workloads(&[2, 4, 6]) {
        let term = w.translated();
        rows.push(row(
            "E7",
            &format!("model/{}", w.name),
            measure::time(warmup, reps, || model(&term)),
        ));
    }
    for w in church_workloads(&[2, 3]) {
        let term = w.translated();
        let ns = measure::time(warmup, reps, || {
            cccc_model::verify::check_type_preservation(&tgt_env, &term).expect("Lemma 4.6 holds")
        });
        rows.push(row("E7", &format!("model_type_preservation/{}", w.name), ns));
    }

    let ns = measure::time(warmup, reps, || {
        for w in &corpus {
            translate(&src_env, &w.term).expect("the corpus translates");
        }
    });
    rows.push(row("E8", "translate/corpus", ns));
    // Deeper towers hand FV and the closures larger environments.
    for w in nested_capture_workloads(&[2, 5, 8]) {
        let ns = measure::time(warmup, reps, || translate(&src_env, &w.term).expect("translates"));
        rows.push(row("E8", &format!("translate/{}", w.name), ns));
    }

    // Lemma 5.1 on a function capturing the substituted variable.
    let x = Symbol::intern("x");
    let gamma = src_env
        .with_assumption(x, s::bool_ty())
        .with_assumption(Symbol::intern("other"), s::bool_ty());
    let capturing = s::lam("y", s::bool_ty(), s::ite(s::var("x"), s::var("y"), s::var("other")));
    let ns = measure::time(warmup, reps, || {
        check_compositionality(&gamma, &capturing, x, &s::tt()).expect("Lemma 5.1 holds")
    });
    rows.push(row("E9", "compositionality/capture_x", ns));
    let four = s::app(
        s::app(prelude::church_add(), prelude::church_numeral(2)),
        prelude::church_numeral(2),
    );
    let is_even_2_plus_2 = s::app(prelude::church_is_even(), four);
    let ns = measure::time(warmup, reps, || {
        check_reduction_preservation(&src_env, &is_even_2_plus_2, 16).expect("Lemma 5.2 holds")
    });
    rows.push(row("E10", "reduction_preservation/is_even_2+2", ns));
    let gamma = src_env.with_assumption(Symbol::intern("f"), s::arrow(s::bool_ty(), s::bool_ty()));
    let eta_expanded = s::lam("x", s::bool_ty(), s::app(s::var("f"), s::var("x")));
    let ns = measure::time(warmup, reps, || {
        check_coherence(&gamma, &eta_expanded, &s::var("f")).expect("Lemma 5.4 holds")
    });
    rows.push(row("E11", "coherence/eta_f", ns));

    let compiler = Compiler::new();
    for w in church_workloads(&[2, 4]) {
        let ns = measure::time(warmup, reps, || {
            let (ty, _) = compiler.phase_typecheck(&src_env, &w.term).expect("type checks");
            compiler.phase_translate(&src_env, &w.term, &ty).expect("translates")
        });
        rows.push(row("E12", &format!("typecheck_and_translate/{}", w.name), ns));
    }

    // Theorem 5.7 on a client of a library that binds `id` and `flag`.
    let (id, flag) = (Symbol::intern("id"), Symbol::intern("flag"));
    let interface =
        src_env.with_assumption(id, prelude::poly_id_ty()).with_assumption(flag, s::bool_ty());
    let client =
        s::ite(s::app(s::app(s::var("id"), s::bool_ty()), s::var("flag")), s::ff(), s::tt());
    let library = vec![(id, prelude::poly_id()), (flag, s::tt())];
    let ns = measure::time(warmup, reps, || {
        link::observe_source(&link::link_source(&client, &library)).expect("a ground value")
    });
    rows.push(row("E13", "link_then_run_cc/id_flag_client", ns));
    let ns = measure::time(warmup, reps, || {
        let compiled = compiler.compile(&interface, &client).expect("the client compiles");
        let library = link::translate_substitution(&interface, &library).expect("it compiles");
        link::observe_target(&link::link_target(&compiled.target, &library))
            .expect("a ground value")
    });
    rows.push(row("E13", "compile_then_link_cccc/id_flag_client", ns));
    let ns = measure::time(warmup, reps, || {
        check_separate_compilation(&interface, &client, &library).expect("Theorem 5.7 holds")
    });
    rows.push(row("E13", "separate_compilation/id_flag_client", ns));
    (rows, cc.median, cccc.median)
}

/// The `capture_depth` rows (E14), run on the step reducer, whose exact
/// cost is recorded beside the time; each CC figure is its ratio's base.
fn capture_depth((warmup, reps): Timing) -> Vec<Json> {
    let depths = [2, 5, 8];
    let mut towers = nested_capture_workloads(&depths);
    towers.extend(nested_closed_workloads(&depths));
    let (src_env, tgt_env) = (src::Env::new(), tgt::Env::new());
    let counters = |counts: [usize; 7]| Json::Arr(counts.map(Json::from).into());
    let sizes = report::size_report(&towers);
    towers
        .iter()
        .zip(sizes)
        .map(|(tower, size)| {
            assert_eq!(size.lambdas, size.closures, "{}: one closure per λ", tower.name);
            let translated = tower.translated();
            let (_, cc_cost) = src::reduce::evaluate_with_cost_default(&src_env, &tower.term);
            let (_, cccc_cost) = tgt::reduce::evaluate_with_cost_default(&tgt_env, &translated);
            let cc = measure::time(warmup, reps, || {
                src::reduce::normalize_default(&src_env, &tower.term)
            });
            let cccc = measure::time(warmup, reps, || {
                tgt::reduce::normalize_default(&tgt_env, &translated)
            });
            obj([
                ("experiment", "E14".into()),
                ("name", tower.name.as_str().into()),
                ("lambdas", size.lambdas.into()),
                ("closures", size.closures.into()),
                ("cc_cost", counters(report::cost_counters(&cc_cost))),
                ("cccc_cost", counters(report::cost_counters(&cccc_cost))),
                ("cc_size", size.source_size.into()),
                ("cccc_size", size.target_size.into()),
                ("size_cccc_over_cc", size.expansion.into()),
                ("cc_run_ns", cc.into()),
                ("cccc_run_ns", cccc.into()),
                ("run_cccc_over_cc", (cccc.median / cc.median).into()),
            ])
        })
        .collect()
}

fn main() {
    let args = Args::parse("BENCH_nbe.json", &[], &[]);
    // 101 timed runs put ten samples above the reported p90. A cold
    // repetition starts a thread and rebuilds its input, so E3 and E6 on
    // the corpus take fewer.
    let timing = if args.quick { (1, 11) } else { (5, 101) };
    let cold_reps = if args.quick { 5 } else { 51 };

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
        compare(
            &mut comparisons,
            format!("normalize_cc/{}", workload.name),
            timing,
            || drop(src::reduce::normalize_default(&env, &workload.term)),
            || drop(src::nbe::normalize_nbe_default(&env, &workload.term)),
        );
    }

    for workload in &workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        compare(
            &mut comparisons,
            format!("normalize_cccc/{}", workload.name),
            timing,
            || drop(tgt::reduce::normalize_default(&env, &translated)),
            || drop(tgt::nbe::normalize_nbe_default(&env, &translated)),
        );
    }

    // The NbE medians, for E6 ÷ E3 on the default engine.
    let (mut cc_medians, mut cccc_medians) = (Vec::new(), Vec::new());
    for workload in &typecheck_workloads {
        let env = src::Env::new();
        let infer = |engine| {
            src::typecheck::infer_with_engine(&env, &workload.term, engine).expect("well-typed");
        };
        let nbe = compare(
            &mut comparisons,
            format!("typecheck_cc/{}", workload.name),
            timing,
            || infer(src::equiv::Engine::Step),
            || infer(src::equiv::Engine::Nbe),
        );
        cc_medians.push(nbe.median);
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
        let nbe = compare(
            &mut comparisons,
            format!("typecheck_cccc/{}", workload.name),
            timing,
            || infer(term, tgt::equiv::Engine::Step),
            || infer(term, tgt::equiv::Engine::Nbe),
        );
        cccc_medians.push(nbe.median);
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
    // Type-checking a program fills the CC `[Lam]` memo with the type of
    // every λ in it, so the translation right after it, on a thread whose
    // memo started cold, infers no λ again.
    let lam_memo_misses = std::thread::spawn(|| {
        let is_even_4x4 = church_workloads(&[4]).remove(0);
        let (compiler, env) = (Compiler::new(), src::Env::new());
        let (ty, _) = compiler.phase_typecheck(&env, &is_even_4x4.term).expect("well-typed");
        let before = src::typecheck::lam_memo_stats();
        compiler.phase_translate(&env, &is_even_4x4.term, &ty).expect("translates");
        src::typecheck::lam_memo_stats().since(&before).memo_misses
    })
    .join()
    .expect("the [Lam] memo smoke thread panicked");
    assert!(
        lam_memo_misses == 0,
        "smoke check failed: translating is_even_4x4 right after type-checking it \
         missed the [Lam] memo {lam_memo_misses} times — the translation re-infers \
         λs the type check already derived"
    );
    println!(
        "kernel smoke checks passed: identity fast path {} hits (memo {} hits) on one NbE pass \
         of the typecheck_cccc family; re-translating is_even_4x4 interned 0 new nodes; \
         translating it after type-checking it missed the [Lam] memo 0 times",
        conv.identity_hits, conv.memo_hits
    );

    let mut pipeline_workloads: Vec<Workload> = church_workloads(&[2, 4]);
    pipeline_workloads.extend(conversion_workloads(&[6]));
    for workload in pipeline_workloads {
        compare(
            &mut comparisons,
            format!("pipeline/{}", workload.name),
            timing,
            || compile_closed_step(&workload.term),
            || drop(Compiler::new().compile_closed(&workload.term).expect("compiles")),
        );
    }

    let (experiments, corpus_cc, corpus_cccc) = experiments(timing, cold_reps);
    let mut overhead = vec![typecheck_overhead("corpus", "cold", corpus_cc, corpus_cccc)];
    for ((workload, cc), cccc) in typecheck_workloads.iter().zip(cc_medians).zip(cccc_medians) {
        overhead.push(typecheck_overhead(&workload.name, "warm", cc, cccc));
    }
    let capture_depth = capture_depth(timing);

    measure::write_report(
        &args.output,
        env!("CARGO_BIN_NAME"),
        [
            (
                "unit",
                "nanoseconds per run over n timed runs after warm-up; speedup is the step \
                 median over the NbE median, and every other ratio is a CC-CC figure over \
                 the CC figure beside it; a cost counts applications, zeta, delta, \
                 projection, conditional, pairs built and functions built, in that order"
                    .into(),
            ),
            ("warmup_runs", timing.0.into()),
            (
                "cold_checks",
                "E3 and E6 on the corpus time each of their n runs on a fresh thread with \
                 an 8 MiB stack, which builds (E3) or builds and translates (E6) the corpus \
                 untimed and then times the check, with no warm-up; every other row repeats \
                 its work on one thread"
                    .into(),
            ),
            (
                "kernel",
                obj([
                    ("typecheck_cccc_identity_fast_path_hits", conv.identity_hits.into()),
                    ("typecheck_cccc_conv_memo_hits", conv.memo_hits.into()),
                    ("retranslate_is_even_4x4_new_nodes", retranslate_misses.into()),
                    ("translate_is_even_4x4_lam_memo_misses", lam_memo_misses.into()),
                ]),
            ),
            ("comparisons", Json::Arr(comparisons)),
            ("experiments", Json::Arr(experiments)),
            ("typecheck_cccc_over_cc", Json::Arr(overhead)),
            ("capture_depth", Json::Arr(capture_depth)),
        ],
    );
}
