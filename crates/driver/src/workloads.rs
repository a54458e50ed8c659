//! Multi-unit workload families for the driver benchmarks, CI smoke
//! checks, and differential suites.
//!
//! Three graph shapes cover the scheduling spectrum:
//!
//! * [`independent_units`] — N units, no imports: embarrassingly
//!   parallel, the throughput-scaling workload;
//! * [`diamond`] — one `base` exporting the polymorphic identity, N
//!   middle units instantiating it, one `top` folding them together: a
//!   wide frontier between two synchronization points, and a *typed*
//!   interface (`Π A : ⋆. Π x : A. A`) flowing across unit boundaries;
//! * [`deep_chain`] — each unit imports the previous one: zero available
//!   parallelism, the scheduling-overhead control group.
//!
//! Every workload above is closed, well-typed, and observes to a boolean
//! at the root, so driver output can be checked end-to-end against the
//! sequential pipeline and the linked program's value. [`broken_web`] is
//! the deliberate exception: a 16-unit graph with exactly three broken
//! units, built for the keep-going gate (every well-typed dependent of a
//! broken unit must be poisoned-and-checked, never skipped).

use crate::query::QueryCounts;
use crate::session::Session;
use cccc_core::pipeline::CompilerOptions;
use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::prelude;

/// One unit of a workload: name, direct imports, source term.
#[derive(Clone, Debug)]
pub struct WorkUnit {
    /// Unit name.
    pub name: String,
    /// Direct import names.
    pub imports: Vec<String>,
    /// The unit's source.
    pub term: src::Term,
}

/// A Church-arithmetic term whose type-checking cost grows with `work`:
/// `is_even (work · work)`.
fn work_term(work: usize) -> src::Term {
    let square = s::app(
        s::app(prelude::church_mul(), prelude::church_numeral(work)),
        prelude::church_numeral(work),
    );
    s::app(prelude::church_is_even(), square)
}

/// Wraps `body` in a unit-specific `let`, so every unit's source is
/// *textually* distinct (distinct structural wire fingerprints) even
/// when the interesting work is identical. The tag is a binder name, so
/// the units remain **α-equivalent** and share one α-invariant input
/// fingerprint: store-backed sessions deliberately compile one
/// representative per family and answer the rest by content address,
/// while store-less sessions (what the throughput benchmarks run)
/// compile every unit.
fn tagged(name: &str, body: src::Term) -> src::Term {
    s::let_(&format!("tag_{name}"), s::bool_ty(), s::tt(), body)
}

/// `count` units with no imports, each type-checking `is_even(work²)`.
pub fn independent_units(count: usize, work: usize) -> Vec<WorkUnit> {
    (0..count)
        .map(|i| {
            let name = format!("unit{i:02}");
            let term = tagged(&name, work_term(work));
            WorkUnit { name, imports: Vec::new(), term }
        })
        .collect()
}

/// A diamond: `base` exports the polymorphic identity; `mid00 … midNN`
/// each instantiate it at `Bool` and apply it to `is_even(work²)`; `top`
/// folds every middle unit with `if`. Total units: `middles + 2`.
pub fn diamond(middles: usize, work: usize) -> Vec<WorkUnit> {
    let mut units = Vec::with_capacity(middles + 2);
    units.push(WorkUnit { name: "base".to_owned(), imports: Vec::new(), term: prelude::poly_id() });
    let mut mid_names = Vec::with_capacity(middles);
    for i in 0..middles {
        let name = format!("mid{i:02}");
        // base : Π A : ⋆. Π x : A. A, instantiated at Bool.
        let term = tagged(&name, s::app(s::app(s::var("base"), s::bool_ty()), work_term(work)));
        units.push(WorkUnit { name: name.clone(), imports: vec!["base".to_owned()], term });
        mid_names.push(name);
    }
    // top = if mid00 then (if mid01 then … else false) else false — true
    // iff every middle unit is true.
    let mut body = s::tt();
    for name in mid_names.iter().rev() {
        body = s::ite(s::var(name), body, s::ff());
    }
    units.push(WorkUnit { name: "top".to_owned(), imports: mid_names, term: body });
    units
}

/// A chain of `length` units: `link00` does the base work, every later
/// `linkNN` imports its predecessor and adds its own.
pub fn deep_chain(length: usize, work: usize) -> Vec<WorkUnit> {
    let length = length.max(1);
    let mut units = Vec::with_capacity(length);
    for i in 0..length {
        let name = format!("link{i:02}");
        if i == 0 {
            units.push(WorkUnit {
                name: name.clone(),
                imports: Vec::new(),
                term: tagged(&name, work_term(work)),
            });
        } else {
            let previous = format!("link{:02}", i - 1);
            let term = tagged(&name, s::ite(s::var(&previous), work_term(work), s::ff()));
            units.push(WorkUnit { name, imports: vec![previous], term });
        }
    }
    units
}

/// A skewed DAG built to punish FIFO frontier ordering: `fan` cheap
/// leaves are inserted *first*, then a `chain` of expensive stages
/// (each importing its predecessor), then a root importing everything.
///
/// At the start every leaf and the chain head are ready at once. A FIFO
/// frontier hands workers the leaves in insertion order and only then
/// starts the chain, so the expensive serial tail begins late; a
/// critical-path-first frontier starts the chain head immediately
/// (it has the highest [`crate::graph::Plan::priority`]) and fills the
/// remaining workers with leaves, overlapping the cheap work with the
/// serial tail. `report_driver`'s makespan model asserts the gap.
pub fn skewed(chain: usize, fan: usize, work: usize) -> Vec<WorkUnit> {
    let chain = chain.max(1);
    let mut units = Vec::with_capacity(fan + chain + 1);
    let mut import_names = Vec::with_capacity(fan + 1);
    for i in 0..fan {
        let name = format!("leaf{i:02}");
        let term = tagged(&name, work_term(1));
        units.push(WorkUnit { name: name.clone(), imports: Vec::new(), term });
        import_names.push(name);
    }
    for i in 0..chain {
        let name = format!("stage{i:02}");
        if i == 0 {
            let term = tagged(&name, work_term(work));
            units.push(WorkUnit { name, imports: Vec::new(), term });
        } else {
            let previous = format!("stage{:02}", i - 1);
            let term = tagged(&name, s::ite(s::var(&previous), work_term(work), s::ff()));
            units.push(WorkUnit { name, imports: vec![previous], term });
        }
    }
    import_names.push(format!("stage{:02}", chain - 1));
    // root = fold of every import with `if`, like the diamond's top.
    let mut body = s::tt();
    for name in import_names.iter().rev() {
        body = s::ite(s::var(name), body, s::ff());
    }
    units.push(WorkUnit { name: "root".to_owned(), imports: import_names, term: body });
    units
}

/// The keep-going gate workload: 16 units, exactly three of them broken,
/// arranged so every failure mode of error-tolerant building shows up in
/// one build:
///
/// * `b0` (application of a Bool, E0003) and `b1` (let annotation
///   mismatch, E0008) are broken leaves;
/// * `b2` is broken *mid-graph* (unbound variable, E0001) on top of a
///   healthy import;
/// * `m0`–`m2` are well-typed dependents of the broken units — with
///   keep-going they must be `Poisoned` and error-free, never `Skipped`;
/// * `m4` depends on `b0` **and** has an error of its own (E0003), so its
///   diagnostics must survive the upstream poison;
/// * `g0`–`g2`, `m3`, and `t2` form a clean cone that must still compile;
/// * `t0`, `t1`, `t3`, and `root` fan the poison back together, pinning
///   provenance unions.
pub fn broken_web() -> Vec<WorkUnit> {
    let unit = |name: &str, imports: &[&str], term: src::Term| WorkUnit {
        name: name.to_owned(),
        imports: imports.iter().map(|&i| i.to_owned()).collect(),
        term,
    };
    let fold = |names: &[&str]| {
        let mut body = s::tt();
        for name in names.iter().rev() {
            body = s::ite(s::var(name), body, s::ff());
        }
        body
    };
    vec![
        unit("b0", &[], s::app(s::tt(), s::ff())),
        unit("b1", &[], s::let_("x", s::bool_ty(), s::star(), s::tt())),
        unit("g0", &[], tagged("g0", work_term(1))),
        unit("g1", &[], tagged("g1", work_term(1))),
        unit("g2", &[], tagged("g2", work_term(1))),
        unit("b2", &["g0"], s::ite(s::var("g0"), s::var("missing"), s::ff())),
        unit("m0", &["b0"], s::ite(s::var("b0"), s::tt(), s::ff())),
        unit("m1", &["b1"], s::ite(s::var("b1"), s::tt(), s::ff())),
        unit("m2", &["b2"], s::ite(s::var("b2"), s::tt(), s::ff())),
        unit("m3", &["g1", "g2"], fold(&["g1", "g2"])),
        unit("m4", &["b0"], s::ite(s::var("b0"), s::app(s::tt(), s::tt()), s::ff())),
        unit("t0", &["m0", "m1"], fold(&["m0", "m1"])),
        unit("t1", &["m2", "m3"], fold(&["m2", "m3"])),
        unit("t2", &["m3"], s::ite(s::var("m3"), s::ff(), s::tt())),
        unit("t3", &["m4", "g0"], fold(&["m4", "g0"])),
        unit("root", &["t0", "t1", "t2", "t3"], fold(&["t0", "t1", "t2", "t3"])),
    ]
}

/// One step of a scripted edit stream: the edit itself — `unit`'s source
/// replaced by `term` ([`Session::update_unit`]) — plus exactly what the
/// next incremental build must re-run. Predictions assume a
/// **store-less, one-worker** session warmed by a build of the previous
/// step's state — the deterministic configuration the differential
/// suite and the `BENCH_query.json` gates use. (The counts are α-class
/// aware: the check and verified queries are content-addressed, so the
/// diamond's fourteen α-equivalent middle units settle those phases
/// once.)
#[derive(Clone, Debug)]
pub struct EditStep {
    /// Stable machine-readable label (lands in `BENCH_query.json`).
    pub label: &'static str,
    /// The unit to edit before the next build.
    pub unit: &'static str,
    /// Its new source.
    pub term: src::Term,
    /// Per-phase execution counts the next build must report
    /// ([`crate::session::BuildReport::queries`]).
    pub predicted: QueryCounts,
    /// The units predicted to re-run at least one phase (`Compiled`
    /// status), in schedule order. Everything else must be `Cached`.
    pub invalidated: Vec<&'static str>,
}

/// The `edits` workload family: the 16-unit [`diamond`] (14 middles)
/// plus a scripted edit stream over its `base` unit, one step per edit
/// kind the query pipeline distinguishes:
///
/// 1. `impl_only` — `base`'s body changes but its inferred interface
///    (`Π A : ⋆. Π x : A. A`) does not: `base` re-runs all four phases,
///    early cutoff spares every dependent (the headline gate: zero
///    dependent re-verifications);
/// 2. `alpha_rename` — `base`'s binders are renamed: the α-invariant
///    source fingerprint is unchanged, so **zero** phases run anywhere;
/// 3. `signature` — `base` now returns `Bool` (`λ A : ⋆. λ x : A. tt`):
///    every unit re-keys (the middles still type-check — they only
///    apply `base` — so the whole graph recompiles, check/verify once
///    per α-class).
///
/// Steps are cumulative: each prediction is against the state the
/// previous steps left behind.
pub fn edits(work: usize) -> (Vec<WorkUnit>, Vec<EditStep>) {
    let units = diamond(14, work);
    // Same interface as `poly_id`, different implementation: the
    // argument takes a detour through an inner redex.
    let impl_variant = s::lam(
        "A",
        s::star(),
        s::lam("x", s::var("A"), s::app(s::lam("y", s::var("A"), s::var("y")), s::var("x"))),
    );
    // The same term with every binder renamed — α-equivalent to
    // `impl_variant` (the state the previous step left), so the
    // α-invariant fingerprints are identical.
    let alpha_variant = s::lam(
        "B",
        s::star(),
        s::lam("z", s::var("B"), s::app(s::lam("w", s::var("B"), s::var("w")), s::var("z"))),
    );
    // A genuine interface change: `base` now returns Bool. The middles
    // still type-check (they only apply `base`), so the whole graph
    // recompiles rather than failing.
    let signature_variant = s::lam("A", s::star(), s::lam("x", s::var("A"), s::tt()));
    let everyone: Vec<&'static str> = {
        let mut names = vec!["base"];
        names.extend(MID_NAMES);
        names.push("top");
        names
    };
    let steps = vec![
        EditStep {
            label: "impl_only",
            unit: "base",
            term: impl_variant,
            predicted: QueryCounts { typecheck: 1, translate: 1, check: 1, verify: 1 },
            invalidated: vec!["base"],
        },
        EditStep {
            label: "alpha_rename",
            unit: "base",
            term: alpha_variant,
            predicted: QueryCounts::default(),
            invalidated: Vec::new(),
        },
        EditStep {
            label: "signature",
            unit: "base",
            term: signature_variant,
            predicted: QueryCounts { typecheck: 16, translate: 16, check: 3, verify: 3 },
            invalidated: everyone,
        },
    ];
    (units, steps)
}

/// The 14 middle-unit names of the `edits` diamond, in index order.
const MID_NAMES: [&str; 14] = [
    "mid00", "mid01", "mid02", "mid03", "mid04", "mid05", "mid06", "mid07", "mid08", "mid09",
    "mid10", "mid11", "mid12", "mid13",
];

/// The root (final) unit of a workload built by the functions above.
pub fn root_of(units: &[WorkUnit]) -> &str {
    &units.last().expect("workloads are non-empty").name
}

/// Builds a session holding the given units.
pub fn session_from(units: &[WorkUnit], options: CompilerOptions) -> Session {
    let mut session = Session::new(options);
    for unit in units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        session.add_unit(&unit.name, &imports, &unit.term).expect("workload names are unique");
    }
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::typecheck::infer;
    use cccc_source::Env;
    use cccc_util::symbol::Symbol;

    /// Type checks a workload sequentially the plain way: each unit under
    /// its predecessors' inferred interfaces.
    fn check_workload(units: &[WorkUnit]) {
        let mut env = Env::new();
        for unit in units {
            let ty = infer(&env, &unit.term)
                .unwrap_or_else(|e| panic!("unit `{}` ill-typed: {e}", unit.name));
            env.push_assumption(Symbol::intern(&unit.name), ty);
        }
    }

    #[test]
    fn independent_units_are_well_typed_and_distinct() {
        let units = independent_units(4, 2);
        assert_eq!(units.len(), 4);
        assert!(units.iter().all(|u| u.imports.is_empty()));
        check_workload(&units);
        assert_ne!(
            cccc_source::wire::fingerprint(&units[0].term),
            cccc_source::wire::fingerprint(&units[1].term),
            "unit sources must have distinct fingerprints"
        );
    }

    #[test]
    fn diamond_is_well_typed_in_dependency_order() {
        let units = diamond(3, 2);
        assert_eq!(units.len(), 5);
        assert_eq!(root_of(&units), "top");
        check_workload(&units);
        assert_eq!(units.last().unwrap().imports.len(), 3);
    }

    #[test]
    fn deep_chain_links_consecutively() {
        let units = deep_chain(4, 2);
        assert_eq!(units.len(), 4);
        check_workload(&units);
        for (i, unit) in units.iter().enumerate().skip(1) {
            assert_eq!(unit.imports, vec![format!("link{:02}", i - 1)]);
        }
    }

    #[test]
    fn edits_family_states_stay_well_typed() {
        let (mut units, steps) = edits(2);
        assert_eq!(units.len(), 16);
        assert_eq!(steps.len(), 3);
        check_workload(&units);
        // The α-rename step must really be α-equivalent to the state the
        // impl-only step leaves (same α-invariant fingerprint, different
        // structural encoding) — that is what makes its prediction zero.
        let impl_only = &steps[0].term;
        let alpha_rename = &steps[1].term;
        assert_eq!(
            cccc_source::wire::fingerprint_alpha(impl_only),
            cccc_source::wire::fingerprint_alpha(alpha_rename),
        );
        assert_ne!(
            cccc_source::wire::fingerprint(impl_only),
            cccc_source::wire::fingerprint(alpha_rename),
        );
        // Every cumulative graph state stays well-typed — including the
        // signature edit, whose middles must keep type-checking.
        for step in &steps {
            let position =
                units.iter().position(|u| u.name == step.unit).expect("edited unit exists");
            units[position].term = step.term.clone();
            check_workload(&units);
        }
    }

    #[test]
    fn skewed_puts_the_chain_head_on_the_critical_path() {
        let units = skewed(3, 4, 2);
        assert_eq!(units.len(), 8);
        assert_eq!(root_of(&units), "root");
        check_workload(&units);
        // Leaves come first in insertion order (that is the point: FIFO
        // picks them up before the chain) …
        assert!(units[0].name.starts_with("leaf"));
        // … but the chain head has the strictly highest priority.
        let session = session_from(&units, CompilerOptions::default());
        let plan = session.graph().plan().unwrap();
        let p = |name: &str| plan.priority[session.graph().index_of(name).unwrap()];
        assert_eq!(p("stage00"), 4, "stage00 → stage01 → stage02 → root");
        assert_eq!(p("leaf00"), 2);
        assert_eq!(p("root"), 1);
        assert!(p("stage00") > p("leaf03"));
    }
}
