//! Shared workloads and measurement helpers for the report bins.
//!
//! The paper has no empirical tables — its evaluation is the theorem suite —
//! but §7 explicitly discusses the performance consequences of abstract
//! closure conversion (extra allocations and dereferences, code growth).
//! `report_nbe` quantifies those costs on this implementation, experiments
//! E2–E14, over the workload families defined here, and the [`report`]
//! module computes the static numbers (sizes, expansion factors, closure
//! counts, evaluation costs). The report bins in `src/bin/` time, probe and
//! write their BENCH files through [`measure`]; the README summarizes them,
//! e.g. the experiments and the engine comparison in `BENCH_nbe.json`.

use cccc_core::pipeline::CompilerOptions;
use cccc_core::translate::translate;
use cccc_driver::session::Session;
use cccc_driver::workloads::WorkUnit;
use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::prelude;
use cccc_target as tgt;
use cccc_util::cost::{Cost, CostLabels};

pub mod measure;

/// A named source-language workload used by the report bins.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name the report rows carry.
    pub name: String,
    /// The closed, well-typed CC program.
    pub term: src::Term,
}

impl Workload {
    /// Wraps a term as a workload.
    pub fn new(name: impl Into<String>, term: src::Term) -> Workload {
        Workload { name: name.into(), term }
    }

    /// Closure converts the workload (panicking on failure — all workloads
    /// are well-typed by construction).
    pub fn translated(&self) -> tgt::Term {
        translate(&src::Env::new(), &self.term).expect("workloads are well-typed")
    }
}

/// The standard corpus as workloads.
pub fn corpus_workloads() -> Vec<Workload> {
    prelude::corpus().into_iter().map(|entry| Workload::new(entry.name, entry.term)).collect()
}

/// Church-arithmetic workloads of increasing size: `is_even (n * n)` for the
/// given values of `n`. Normalization cost grows with `n`, which is what
/// `report_nbe`'s normalization, type-checking and model rows sweep.
pub fn church_workloads(sizes: &[usize]) -> Vec<Workload> {
    sizes
        .iter()
        .map(|&n| {
            let square = s::app(
                s::app(prelude::church_mul(), prelude::church_numeral(n)),
                prelude::church_numeral(n),
            );
            Workload::new(format!("is_even_{n}x{n}"), s::app(prelude::church_is_even(), square))
        })
        .collect()
}

/// Conversion-heavy workloads: programs whose *types* compute.
///
/// `conv_heavy_n` forces the conversion rule `[Conv]` to decide
/// `T₁ ≡ T₂` for two *type-level* Church computations
///
/// ```text
/// T₁ = (λ F. n̂ (n̂ F)) (λ A : ⋆. Π _ : Bool. A) Bool
/// T₂ = (mulT n̂ n̂)     (λ A : ⋆. Π _ : Bool. A) Bool
/// ```
///
/// which are syntactically different (so no α-short-cut applies) but both
/// normalize to the Π-chain `Bool → … → Bool` of length n², which
/// *grows* while it reduces. This is the definitional-equality stress
/// case of dependent type checking and the workload family the engine
/// head-to-head rows of `report_nbe` sweep. In the
/// `typecheck_cc/conv_heavy_*` and `typecheck_cccc/conv_heavy_*` rows of
/// `BENCH_nbe.json`, both engines slow down by similar factors from
/// n = 4 to n = 10. A single median there moves from run to run: on a
/// 2-CPU host, ten back-to-back full runs put the step engine's
/// `typecheck_cc/conv_heavy_10` anywhere from 121 to 186 µs.
pub fn conversion_workloads(sizes: &[usize]) -> Vec<Workload> {
    sizes.iter().map(|&n| Workload::new(format!("conv_heavy_{n}"), conversion_program(n))).collect()
}

/// Builds the `conv_heavy_n` program; see [`conversion_workloads`].
pub fn conversion_program(n: usize) -> src::Term {
    let ty_op = s::arrow(s::star(), s::star());
    let numeral_ty = s::pi("F", ty_op.clone(), s::arrow(s::star(), s::star()));
    // n̂ = λ F : ⋆→⋆. λ A : ⋆. Fⁿ A
    let numeral = || {
        let mut body = s::var("A");
        for _ in 0..n {
            body = s::app(s::var("F"), body);
        }
        s::lam("F", ty_op.clone(), s::lam("A", s::star(), body))
    };
    // The chain-growing operator λ A : ⋆. Π _ : Bool. A.
    let grow = s::lam("A", s::star(), s::pi("_b", s::bool_ty(), s::var("A")));
    // T₁ = (λ F. n̂ (n̂ F)) grow Bool — composition written directly.
    let compose = s::lam("F", ty_op.clone(), s::app(numeral(), s::app(numeral(), s::var("F"))));
    let t1 = s::app(s::app(compose, grow.clone()), s::bool_ty());
    // T₂ = mulT n̂ n̂ grow Bool — the same type through multiplication.
    let mul = s::lam(
        "m",
        numeral_ty.clone(),
        s::lam(
            "n",
            numeral_ty,
            s::lam("F", ty_op.clone(), s::app(s::var("m"), s::app(s::var("n"), s::var("F")))),
        ),
    );
    let t2 = s::app(s::app(s::app(s::app(mul, numeral()), numeral()), grow), s::bool_ty());
    // (λ p : (Π _ : T₁. Bool). true) (λ q : T₂. true) — checking the
    // argument compares Π _ : T₂. Bool against Π _ : T₁. Bool, i.e.
    // decides T₁ ≡ T₂ without ever needing an inhabitant of the chain.
    s::app(s::lam("p", s::pi("_f", t1, s::bool_ty()), s::tt()), s::lam("q", t2, s::tt()))
}

/// Workloads with `depth` nested λ-abstractions, each capturing all previous
/// binders — the environment of the innermost closure grows linearly with
/// `depth`. This is the environment-size sweep of experiment E14.
pub fn nested_capture_workloads(depths: &[usize]) -> Vec<Workload> {
    depths
        .iter()
        .map(|&depth| {
            Workload::new(format!("capture_depth_{depth}"), nested_capture_program(depth))
        })
        .collect()
}

/// Builds a tower of `depth` nested functions whose innermost body tests
/// all `depth` binders, so the innermost closure captures the `depth - 1`
/// enclosing ones, then applies the tower to `true` at every binder so
/// that every test runs and the program evaluates to `true`.
pub fn nested_capture_program(depth: usize) -> src::Term {
    // λ b0 : Bool. λ b1 : Bool. … λ b_{depth-1} : Bool. (conjunction of all bi)
    let names: Vec<String> = (0..depth).map(|i| format!("b{i}")).collect();
    let mut body = s::tt();
    for name in &names {
        body = s::ite(s::var(name), body, s::ff());
    }
    let mut function = body;
    for name in names.iter().rev() {
        function = s::lam(name, s::bool_ty(), function);
    }
    let mut program = function;
    for _ in 0..depth {
        program = s::app(program, s::tt());
    }
    program
}

/// Workloads with increasingly deep *non-capturing* λ towers (empty
/// environments), used as the control group against
/// [`nested_capture_workloads`].
pub fn nested_closed_workloads(depths: &[usize]) -> Vec<Workload> {
    depths
        .iter()
        .map(|&depth| {
            let mut program = s::lam("x", s::bool_ty(), s::var("x"));
            for _ in 1..depth.max(1) {
                program = s::lam("ignored", s::bool_ty(), program);
            }
            for i in 0..depth.max(1) {
                program = s::app(program, s::bool_lit(i % 2 == 0));
            }
            Workload::new(format!("closed_depth_{depth}"), program)
        })
        .collect()
}

/// A session over `units` with default options and its artifact store at
/// `dir`.
pub fn store_session(units: &[WorkUnit], dir: &std::path::Path) -> Session {
    let mut session =
        Session::with_store(CompilerOptions::default(), dir).expect("store dir is creatable");
    for unit in units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        session.add_unit(&unit.name, &imports, &unit.term).expect("workload names are unique");
    }
    session
}

/// Code-size and evaluation-cost measurements (experiment E14), recorded by
/// `report_nbe`.
pub mod report {
    use super::*;

    /// Size statistics for one workload.
    #[derive(Clone, Debug)]
    pub struct SizeReport {
        /// Workload name.
        pub name: String,
        /// Source AST size.
        pub source_size: usize,
        /// Translated AST size.
        pub target_size: usize,
        /// `target_size / source_size`.
        pub expansion: f64,
        /// Number of λ-abstractions in the source.
        pub lambdas: usize,
        /// Number of closures in the output (must equal `lambdas`).
        pub closures: usize,
    }

    /// Computes the code-size report for a set of workloads (experiment E14).
    pub fn size_report(workloads: &[Workload]) -> Vec<SizeReport> {
        workloads
            .iter()
            .map(|w| {
                let translated = w.translated();
                SizeReport {
                    name: w.name.clone(),
                    source_size: w.term.size(),
                    target_size: translated.size(),
                    expansion: translated.size() as f64 / w.term.size() as f64,
                    lambdas: w.term.lambda_count(),
                    closures: translated.closure_count(),
                }
            })
            .collect()
    }

    /// A cost's seven counters in field order: applications, ζ, δ, π,
    /// `if`, pairs built, functions built.
    pub fn cost_counters<L: CostLabels>(cost: &Cost<L>) -> [usize; 7] {
        [
            cost.applications,
            cost.zeta,
            cost.delta,
            cost.projection,
            cost.conditional,
            cost.pairs_built,
            cost.functions_built,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_workloads_are_nonempty_and_translate() {
        let workloads = corpus_workloads();
        assert!(workloads.len() >= 30);
        for w in workloads.iter().take(5) {
            let _ = w.translated();
        }
    }

    #[test]
    fn church_workloads_grow_with_n() {
        let workloads = church_workloads(&[1, 3]);
        assert_eq!(workloads.len(), 2);
        assert!(workloads[1].term.size() > workloads[0].term.size());
    }

    #[test]
    fn conversion_workloads_are_well_typed_and_conversion_heavy() {
        for n in [1, 3] {
            let program = conversion_program(n);
            // The program type-checks (forcing `T ≡ Bool`) and runs to true.
            let ty = src::typecheck::infer(&src::Env::new(), &program).unwrap();
            assert!(src::equiv::definitionally_equal(&src::Env::new(), &ty, &s::bool_ty()));
            let value = src::nbe::normalize_nbe_default(&src::Env::new(), &program);
            assert!(matches!(value, src::Term::BoolLit(true)));
            // Both engines accept it.
            src::typecheck::infer_with_engine(&src::Env::new(), &program, src::equiv::Engine::Step)
                .unwrap();
            // And the translation type-checks in CC-CC.
            let translated = Workload::new("conv", program).translated();
            tgt::typecheck::infer(&tgt::Env::new(), &translated).unwrap();
        }
    }

    /// The exact cost of evaluating `workload` in CC and, translated, in
    /// CC-CC, with both values.
    fn costs(workload: &Workload) -> (src::Term, [usize; 7], tgt::Term, [usize; 7]) {
        let (cc_value, cc) =
            src::reduce::evaluate_with_cost_default(&src::Env::new(), &workload.term);
        let (cccc_value, cccc) =
            tgt::reduce::evaluate_with_cost_default(&tgt::Env::new(), &workload.translated());
        (cc_value, report::cost_counters(&cc), cccc_value, report::cost_counters(&cccc))
    }

    #[test]
    fn nested_capture_programs_are_well_typed_and_ground() {
        // The innermost `if` chain tests every captured variable: the λ at
        // depth i projects its i captured variables out of its environment.
        let pinned = [
            (2, [2, 0, 0, 0, 2, 0, 0], [2, 1, 0, 1, 2, 0, 0]),
            (5, [5, 0, 0, 0, 5, 0, 0], [5, 10, 0, 20, 5, 0, 0]),
            (8, [8, 0, 0, 0, 8, 0, 0], [8, 28, 0, 84, 8, 0, 0]),
        ];
        for (depth, cc_counts, cccc_counts) in pinned {
            let workload = nested_capture_workloads(&[depth]).remove(0);
            let ty = src::typecheck::infer(&src::Env::new(), &workload.term).unwrap();
            assert!(matches!(ty, src::Term::BoolTy));
            let (cc_value, cc, cccc_value, cccc) = costs(&workload);
            assert!(matches!(cc_value, src::Term::BoolLit(true)), "{}", workload.name);
            assert!(matches!(cccc_value, tgt::Term::BoolLit(true)), "{}", workload.name);
            assert_eq!((cc, cccc), (cc_counts, cccc_counts), "{}", workload.name);
        }
    }

    #[test]
    fn nested_closed_workloads_have_empty_environments() {
        for w in nested_closed_workloads(&[2, 5, 8]) {
            let translated = w.translated();
            // Every closure's environment is the unit value.
            let mut all_empty = true;
            translated.visit(&mut |node| {
                if let tgt::Term::Closure { env, .. } = node {
                    if !matches!(&**env, tgt::Term::UnitVal) {
                        all_empty = false;
                    }
                }
            });
            assert!(all_empty, "{} should only have empty environments", w.name);
            // So running it projects nothing, in either language.
            let depth = w.term.lambda_count();
            let (_, cc, _, cccc) = costs(&w);
            assert_eq!(
                (cc, cccc),
                ([depth, 0, 0, 0, 0, 0, 0], [depth, 0, 0, 0, 0, 0, 0]),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn size_report_matches_lambda_and_closure_counts() {
        let rows = report::size_report(&corpus_workloads());
        for row in rows {
            assert_eq!(row.lambdas, row.closures, "{}", row.name);
            assert!(row.expansion >= 1.0);
        }
    }

    #[test]
    fn size_report_of_the_towers_has_one_closure_per_lambda() {
        // The E14 invariant `report_nbe` asserts, on the depths it records:
        // a tower of depth d has d λs and d closures, and capturing costs
        // code that the closed tower does not pay.
        let depths = [2, 5, 8];
        let capture = report::size_report(&nested_capture_workloads(&depths));
        let closed = report::size_report(&nested_closed_workloads(&depths));
        for ((depth, capture), closed) in depths.into_iter().zip(capture).zip(closed) {
            for row in [&capture, &closed] {
                assert_eq!((row.lambdas, row.closures), (depth, depth), "{}", row.name);
                assert!(row.expansion >= 1.0, "{}", row.name);
            }
            assert!(capture.target_size > closed.target_size, "{}", capture.name);
        }
    }

    #[test]
    fn cost_counters_follow_the_field_order() {
        // The order of `tests/hoisting_and_cost.rs`, which the `cc_cost`
        // and `cccc_cost` arrays of `BENCH_nbe.json` follow.
        let mut cost = src::reduce::Cost::default();
        cost.applications = 1;
        cost.zeta = 2;
        cost.delta = 3;
        cost.projection = 4;
        cost.conditional = 5;
        cost.pairs_built = 6;
        cost.functions_built = 7;
        assert_eq!(report::cost_counters(&cost), [1, 2, 3, 4, 5, 6, 7]);
    }
}
