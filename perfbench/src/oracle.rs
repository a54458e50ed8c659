//! References that do not use closure conversion: the source step engine
//! on the linked source program, and a differential check of a session
//! against `Session::compile_sequential`.

use cccc_driver::Session;
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::fuel::Fuel;
use cccc_util::symbol::Symbol;
use std::collections::HashMap;

/// Step budget for the reference evaluation.
const FUEL: u64 = 50_000_000;

/// The root's verdict: substitute every unit's source for its name,
/// bottom-up, then weak-head reduce the closed `Bool` with the step
/// engine. `units` is `(name, imports, term)` in topological order, root
/// last.
pub fn reference_verdict(units: &[(String, Vec<String>, src::Term)]) -> Result<bool, String> {
    let mut linked: HashMap<&str, src::Term> = HashMap::new();
    for (name, imports, term) in units {
        let substitution: Vec<(Symbol, src::Term)> =
            imports.iter().map(|i| (Symbol::intern(i), linked[i.as_str()].clone())).collect();
        linked.insert(name, src::subst::subst_all(term, &substitution));
    }
    let (root, _, _) = units.last().ok_or("empty workload")?;
    let mut fuel = Fuel::new(FUEL);
    match src::reduce::whnf(&src::Env::new(), &linked[root.as_str()], &mut fuel) {
        Ok(src::Term::BoolLit(b)) => Ok(b),
        Ok(other) => Err(format!("root did not reduce to a boolean: {other}")),
        Err(e) => Err(format!("reference evaluation failed: {e}")),
    }
}

/// Compiles the session's current graph with the sequential oracle and
/// requires α-equivalent CC-CC output for every unit and the reference
/// verdict at the root.
pub fn differential(session: &Session, root: &str, expected: bool) -> Result<(), String> {
    let sequential = session.compile_sequential().map_err(|e| e.to_string())?;
    let plan = session.graph().plan().map_err(|e| e.to_string())?;
    let mut linked: HashMap<String, tgt::Term> = HashMap::new();
    for (name, compilation) in &sequential {
        let built = session.target_term(name).map_err(|e| e.to_string())?;
        if tgt::wire::fingerprint_alpha(&built) != tgt::wire::fingerprint_alpha(&compilation.target)
        {
            return Err(format!("unit `{name}`: driver output differs from the sequential oracle"));
        }
        let index = session.graph().index_of(name).ok_or("unit vanished")?;
        let substitution: Vec<(Symbol, tgt::Term)> = plan.transitive[index]
            .iter()
            .map(|&d| {
                let dep = session.graph().unit_at(d);
                (dep.symbol, linked[&dep.name].clone())
            })
            .collect();
        linked
            .insert(name.clone(), cccc_core::link::link_target(&compilation.target, &substitution));
    }
    match cccc_core::link::observe_target(&linked[root]) {
        Some(verdict) if verdict == expected => Ok(()),
        other => Err(format!("sequential oracle observed {other:?}, reference says {expected}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{EditStream, Graph};
    use crate::workloads::{parse_all, ColdDag, Workload};

    fn units(graph: &Graph, texts: &[String]) -> Vec<(String, Vec<String>, src::Term)> {
        let terms = parse_all(texts).expect("generated texts parse");
        graph.units.iter().zip(terms).map(|(u, t)| (u.name.clone(), u.imports.clone(), t)).collect()
    }

    #[test]
    fn edits_preserve_the_reference_verdict() {
        let graph = Graph::generate(3);
        let mut texts = graph.texts();
        let verdict = reference_verdict(&units(&graph, &texts)).expect("reference evaluates");
        let mut stream = EditStream::new(&graph, 3);
        for _ in 0..10 {
            let edit = stream.next(&graph);
            texts[edit.unit] = edit.text;
            assert_eq!(reference_verdict(&units(&graph, &texts)), Ok(verdict));
        }
    }

    #[test]
    fn a_driver_build_agrees_with_the_sequential_oracle() {
        let mut cold = ColdDag::setup(4).expect("set-up builds");
        cold.op(2).expect("operation runs");
        let prep = cold.prepared();
        assert_eq!(differential(cold.session(), prep.root(), prep.expected), Ok(()));
        assert!(differential(cold.session(), prep.root(), !prep.expected).is_err());
    }
}
