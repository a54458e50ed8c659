//! Experiments E8/E12 — cost of the closure-conversion translation itself
//! (Figure 9, including the FV metafunction of Figure 10), and of the full
//! type-preserving pipeline (translate + re-check, Theorem 5.6).

use cccc_bench::{church_workloads, corpus_workloads, nested_capture_workloads};
use cccc_core::pipeline::Compiler;
use cccc_core::translate::translate;
use cccc_source as src;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("translate");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));

    // Aggregate translation of the corpus.
    let corpus = corpus_workloads();
    group.bench_function("corpus_all", |b| {
        let env = src::Env::new();
        b.iter(|| {
            for workload in &corpus {
                translate(&env, &workload.term).expect("corpus translates");
            }
        });
    });

    // Environment-size sweep: deeper capture towers mean larger telescopes
    // for the FV metafunction and the environment construction.
    for workload in nested_capture_workloads(&[2, 5, 8]) {
        group.bench_with_input(BenchmarkId::new("capture", &workload.name), &workload, |b, w| {
            let env = src::Env::new();
            b.iter(|| translate(&env, &w.term).expect("translates"));
        });
    }
    group.finish();

    // The full "typed" pipeline: translate and re-check the output,
    // verifying type preservation (this is what a type-preserving compiler
    // actually pays per compilation unit).
    let mut group = c.benchmark_group("compile_full_pipeline");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    let compiler = Compiler::new();
    for workload in church_workloads(&[2, 4]) {
        group.bench_with_input(
            BenchmarkId::new("translate_only", &workload.name),
            &workload,
            |b, w| {
                let env = src::Env::new();
                b.iter(|| {
                    let (ty, _) = compiler.phase_typecheck(&env, &w.term).expect("type checks");
                    compiler.phase_translate(&env, &w.term, &ty).expect("translates")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("translate_and_verify", &workload.name),
            &workload,
            |b, w| b.iter(|| compiler.compile_closed(&w.term).expect("compiles")),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_translation);
criterion_main!(benches);
