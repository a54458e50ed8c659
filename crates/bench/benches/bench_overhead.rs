//! Experiment E14 — the §7 performance discussion quantified: the overhead
//! that abstract closure conversion introduces at run time (environment
//! allocation and projection) and in code size, as a function of how many
//! variables each closure captures.
//!
//! Two series are compared:
//!
//! * `capture_depth_d` — a tower of `d` nested functions where the innermost
//!   body uses all `d` enclosing binders, so every closure's environment
//!   grows with `d`;
//! * `closed_depth_d` — a control tower of the same depth whose functions
//!   capture nothing (empty environments).
//!
//! The bench measures evaluation time of the *translated* programs; the
//! static code-size expansion for the same workloads is printed by
//! `report::size_report` in the bench's setup (`cargo bench`, as the
//! README's "Build, test, bench" section runs it).

use cccc_bench::{nested_capture_workloads, nested_closed_workloads, report};
use cccc_source as src;
use cccc_target as tgt;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_overhead(c: &mut Criterion) {
    let depths = [2usize, 5, 8];
    let capture = nested_capture_workloads(&depths);
    let closed = nested_closed_workloads(&depths);

    // Print the static code-size table once, so `cargo bench` output
    // carries the E14 sizes next to the timings.
    let mut rows = report::size_report(&capture);
    rows.extend(report::size_report(&closed));
    println!("\n=== E14: code-size expansion ===\n{}", report::render_table(&rows));

    let mut group = c.benchmark_group("run_translated");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));

    for workload in capture.iter().chain(closed.iter()) {
        let translated = workload.translated();
        group.bench_with_input(BenchmarkId::new("cccc", &workload.name), &translated, |b, term| {
            let env = tgt::Env::new();
            b.iter(|| tgt::reduce::normalize_default(&env, term));
        });
        group.bench_with_input(
            BenchmarkId::new("cc_baseline", &workload.name),
            workload,
            |b, w| {
                let env = src::Env::new();
                b.iter(|| src::reduce::normalize_default(&env, &w.term));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
