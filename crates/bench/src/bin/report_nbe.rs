//! Regenerates `BENCH_nbe.json` (repository root): head-to-head timings of
//! the substitution-based step engine against the NbE engine on the shared
//! workload corpus — normalization (CC and CC-CC), type checking (CC and
//! CC-CC), and the full compile pipeline.
//!
//! The workload set, iteration counts, and output schema are fixed, so the
//! file regenerates deterministically up to measured wall-clock times:
//!
//! ```text
//! cargo run --release -p cccc-bench --bin report_nbe
//! cargo run --release -p cccc-bench --bin report_nbe -- --quick out.json
//! ```
//!
//! `--quick` cuts the iteration counts for CI smoke runs; an optional path
//! argument overrides the output location.

use cccc_bench::{church_workloads, conversion_workloads, Workload};
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_source as src;
use cccc_target as tgt;
use std::path::PathBuf;
use std::time::Instant;

/// One step-vs-NbE measurement.
struct Comparison {
    name: String,
    step_ns: u128,
    nbe_ns: u128,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.step_ns as f64 / self.nbe_ns.max(1) as f64
    }
}

/// Times `body` over `iterations` runs (after one warm-up) and returns the
/// mean in nanoseconds.
fn time_ns(iterations: u32, mut body: impl FnMut()) -> u128 {
    body();
    let start = Instant::now();
    for _ in 0..iterations {
        body();
    }
    start.elapsed().as_nanos() / u128::from(iterations)
}

fn measure(
    name: &str,
    iterations: u32,
    mut step: impl FnMut(),
    mut nbe: impl FnMut(),
) -> Comparison {
    let step_ns = time_ns(iterations, &mut step);
    let nbe_ns = time_ns(iterations, &mut nbe);
    let comparison = Comparison { name: name.to_owned(), step_ns, nbe_ns };
    println!(
        "{:<40} step {:>12} ns   nbe {:>12} ns   speedup {:>7.2}x",
        comparison.name,
        comparison.step_ns,
        comparison.nbe_ns,
        comparison.speedup()
    );
    comparison
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let output: PathBuf =
        args.iter().find(|a| !a.starts_with("--")).map(PathBuf::from).unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_nbe.json")
        });
    let iterations: u32 = if quick { 3 } else { 20 };

    let workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    // Type checking is measured on both families: Church arithmetic
    // (structure-heavy, conversions mostly α-trivial) and the
    // conversion-heavy family, where `[Conv]` has to normalize growing
    // type-level computations and the engines diverge asymptotically.
    let mut typecheck_workloads: Vec<Workload> = church_workloads(&[2, 4, 6]);
    typecheck_workloads.extend(conversion_workloads(&[4, 6, 8, 10]));
    let mut comparisons: Vec<Comparison> = Vec::new();

    for workload in &workloads {
        let env = src::Env::new();
        comparisons.push(measure(
            &format!("normalize_cc/{}", workload.name),
            iterations,
            || {
                src::reduce::normalize_default(&env, &workload.term);
            },
            || {
                src::nbe::normalize_nbe_default(&env, &workload.term);
            },
        ));
    }

    for workload in &workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        comparisons.push(measure(
            &format!("normalize_cccc/{}", workload.name),
            iterations,
            || {
                tgt::reduce::normalize_default(&env, &translated);
            },
            || {
                tgt::nbe::normalize_nbe_default(&env, &translated);
            },
        ));
    }

    for workload in &typecheck_workloads {
        let env = src::Env::new();
        comparisons.push(measure(
            &format!("typecheck_cc/{}", workload.name),
            iterations,
            || {
                src::typecheck::infer_with_engine(&env, &workload.term, src::equiv::Engine::Step)
                    .expect("well-typed");
            },
            || {
                src::typecheck::infer_with_engine(&env, &workload.term, src::equiv::Engine::Nbe)
                    .expect("well-typed");
            },
        ));
    }

    for workload in &typecheck_workloads {
        let translated = workload.translated();
        let env = tgt::Env::new();
        comparisons.push(measure(
            &format!("typecheck_cccc/{}", workload.name),
            iterations,
            || {
                tgt::typecheck::infer_with_engine(&env, &translated, tgt::equiv::Engine::Step)
                    .expect("well-typed");
            },
            || {
                tgt::typecheck::infer_with_engine(&env, &translated, tgt::equiv::Engine::Nbe)
                    .expect("well-typed");
            },
        ));
    }

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
    let mut pipeline_workloads: Vec<Workload> = church_workloads(&[2, 4]);
    pipeline_workloads.extend(conversion_workloads(&[6]));
    for workload in pipeline_workloads {
        comparisons.push(measure(
            &format!("pipeline/{}", workload.name),
            iterations,
            || {
                step_compiler.compile_closed(&workload.term).expect("compiles");
            },
            || {
                nbe_compiler.compile_closed(&workload.term).expect("compiles");
            },
        ));
    }

    let json = render_json(&comparisons, iterations);
    std::fs::write(&output, json).expect("write BENCH_nbe.json");
    println!("\nwrote {}", output.display());
}

/// Renders the comparisons as JSON by hand (the workspace is offline and
/// carries no serialization dependency).
fn render_json(comparisons: &[Comparison], iterations: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p cccc-bench --bin report_nbe\",\n");
    out.push_str("  \"unit\": \"mean nanoseconds per run\",\n");
    out.push_str(&format!("  \"iterations\": {iterations},\n"));
    out.push_str("  \"comparisons\": [\n");
    for (index, c) in comparisons.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"step_ns\": {}, \"nbe_ns\": {}, \"speedup\": {:.2} }}{}\n",
            c.name,
            c.step_ns,
            c.nbe_ns,
            c.speedup(),
            if index + 1 == comparisons.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
