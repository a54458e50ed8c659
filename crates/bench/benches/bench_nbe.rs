//! Head-to-head comparison of the two evaluation engines: the
//! substitution-based step engine (`reduce`, the paper-faithful
//! specification) against the normalization-by-evaluation engine (`nbe`,
//! what every hot path runs on) — on normalization, type checking, and the
//! full compile pipeline over the shared workload corpus.
//!
//! `crates/bench/src/bin/report_nbe.rs` measures the same pairs without
//! Criterion and writes the headline numbers to `BENCH_nbe.json` at the
//! repository root.

use cccc_bench::{church_workloads, conversion_workloads, nested_capture_workloads, Workload};
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_source as src;
use cccc_target as tgt;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
}

fn bench_normalization_engines(c: &mut Criterion) {
    let mut workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    workloads.extend(nested_capture_workloads(&[4, 8]));

    let mut group = c.benchmark_group("normalize_cc_step_vs_nbe");
    configure(&mut group);
    for workload in &workloads {
        let env = src::Env::new();
        group.bench_with_input(BenchmarkId::new("step", &workload.name), workload, |b, w| {
            b.iter(|| src::reduce::normalize_default(&env, &w.term));
        });
        group.bench_with_input(BenchmarkId::new("nbe", &workload.name), workload, |b, w| {
            b.iter(|| src::nbe::normalize_nbe_default(&env, &w.term));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("normalize_cccc_step_vs_nbe");
    configure(&mut group);
    for workload in &workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        group.bench_with_input(BenchmarkId::new("step", &workload.name), &translated, |b, t| {
            b.iter(|| tgt::reduce::normalize_default(&env, t));
        });
        group.bench_with_input(BenchmarkId::new("nbe", &workload.name), &translated, |b, t| {
            b.iter(|| tgt::nbe::normalize_nbe_default(&env, t));
        });
    }
    group.finish();
}

fn bench_typecheck_engines(c: &mut Criterion) {
    // Church arithmetic exercises the checker's structure; the
    // conversion-heavy family exercises `[Conv]`, where the engines
    // actually diverge (Θ(n⁴) step vs Θ(n²) NbE).
    let mut workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    workloads.extend(conversion_workloads(&[4, 6, 8]));

    let mut group = c.benchmark_group("typecheck_cc_step_vs_nbe");
    configure(&mut group);
    for workload in &workloads {
        let env = src::Env::new();
        group.bench_with_input(BenchmarkId::new("step", &workload.name), workload, |b, w| {
            b.iter(|| {
                src::typecheck::infer_with_engine(&env, &w.term, src::equiv::Engine::Step)
                    .expect("well-typed")
            });
        });
        group.bench_with_input(BenchmarkId::new("nbe", &workload.name), workload, |b, w| {
            b.iter(|| {
                src::typecheck::infer_with_engine(&env, &w.term, src::equiv::Engine::Nbe)
                    .expect("well-typed")
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("typecheck_cccc_step_vs_nbe");
    configure(&mut group);
    for workload in &workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        group.bench_with_input(BenchmarkId::new("step", &workload.name), &translated, |b, t| {
            b.iter(|| {
                tgt::typecheck::infer_with_engine(&env, t, tgt::equiv::Engine::Step)
                    .expect("well-typed")
            });
        });
        group.bench_with_input(BenchmarkId::new("nbe", &workload.name), &translated, |b, t| {
            b.iter(|| {
                tgt::typecheck::infer_with_engine(&env, t, tgt::equiv::Engine::Nbe)
                    .expect("well-typed")
            });
        });
    }
    group.finish();
}

fn bench_pipeline_engines(c: &mut Criterion) {
    // Full compile (source check → translate → target re-check → the
    // Theorem 5.6 conversion), each on its own engine.
    let step_compiler = Compiler::with_options(CompilerOptions {
        typecheck_output: true,
        use_nbe: false,
        ..CompilerOptions::default()
    });
    let nbe_compiler = Compiler::with_options(CompilerOptions {
        typecheck_output: true,
        use_nbe: true,
        ..CompilerOptions::default()
    });

    let mut group = c.benchmark_group("pipeline_step_vs_nbe");
    configure(&mut group);
    let mut workloads: Vec<Workload> = church_workloads(&[2, 4]);
    workloads.extend(conversion_workloads(&[6]));
    for workload in workloads {
        group.bench_with_input(BenchmarkId::new("step", &workload.name), &workload, |b, w| {
            b.iter(|| step_compiler.compile_closed(&w.term).expect("compiles"));
        });
        group.bench_with_input(BenchmarkId::new("nbe", &workload.name), &workload, |b, w| {
            b.iter(|| nbe_compiler.compile_closed(&w.term).expect("compiles"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_normalization_engines,
    bench_typecheck_engines,
    bench_pipeline_engines
);
criterion_main!(benches);
