//! The compilation-unit graph: named units, typed import interfaces,
//! cycle detection, and topological scheduling.
//!
//! A *unit* is a named, well-typed open CC term whose free variables are
//! the names of other units — its *imports*. The unit's inferred CC type
//! is its *exported interface*: a unit importing `m` is checked under the
//! assumption `m : Aₘ` where `Aₘ` is `m`'s interface, exactly the
//! component setup of §5.2 (closing it is deferred to
//! [link time](crate::session::Session::link), which binds each import in
//! a `let` telescope ζ-equivalent to the closing substitution). Because
//! CC-CC code is checked closed (`[Code]`), compiled units are genuinely
//! separately compilable: a unit's artifact depends only on its source and its
//! imports' *interfaces*, never on their bodies — which is what lets the
//! artifact cache skip rebuilds when an import's implementation changes
//! but its interface does not.
//!
//! Unit sources are stored wire-encoded ([`cccc_source::wire`]), so the
//! graph itself is `Send` and workers can pick units up from any thread.

use crate::DriverError;
use cccc_source as src;
use cccc_util::symbol::Symbol;
use cccc_util::wire::{Fingerprint, WireTerm};
use std::collections::HashMap;

/// One named compilation unit.
#[derive(Clone, Debug)]
pub struct Unit {
    /// The unit's name; also the variable under which importers see it.
    pub name: String,
    /// The symbol importers reference the unit by.
    pub symbol: Symbol,
    /// Names of directly imported units.
    pub imports: Vec<String>,
    /// The wire-encoded source term.
    pub source: WireTerm,
    /// The α-invariant, *process-stable* fingerprint of the source
    /// ([`cccc_source::wire::fingerprint_alpha`]), computed when the
    /// source is set. This — not the raw buffer's fingerprint, whose
    /// symbol words depend on interning history — is what input
    /// fingerprints fold in, so cache keys computed by one process
    /// validate artifacts the persistent store holds from another.
    pub source_alpha: Fingerprint,
}

/// A graph of named compilation units.
///
/// Units may be added in any order and may reference units added later;
/// [`UnitGraph::plan`] validates the import references, rejects cycles,
/// and produces the topological schedule the driver's workers consume.
#[derive(Clone, Debug, Default)]
pub struct UnitGraph {
    units: Vec<Unit>,
    index: HashMap<String, usize>,
}

/// The validated schedule for a [`UnitGraph`].
#[derive(Clone, Debug)]
pub struct Plan {
    /// Unit indices in a deterministic topological order (insertion order
    /// among ready units).
    pub order: Vec<usize>,
    /// For each unit, its direct imports as indices.
    pub direct: Vec<Vec<usize>>,
    /// For each unit, its *transitive* imports as indices, in the same
    /// topological order as [`Plan::order`]. This is the unit's typing
    /// telescope: interfaces of later deps may mention earlier deps.
    pub transitive: Vec<Vec<usize>>,
    /// For each unit, the units that directly import it.
    pub dependents: Vec<Vec<usize>>,
    /// For each unit, the number of units on the longest dependency chain
    /// from it to a sink (itself included) — its *critical-path*
    /// priority. The scheduler releases ready units highest-priority
    /// first, so long chains start as early as possible and a skewed
    /// DAG's makespan is bounded by its critical path rather than by
    /// whatever insertion order put in front of it.
    pub priority: Vec<u64>,
}

impl UnitGraph {
    /// An empty graph.
    pub fn new() -> UnitGraph {
        UnitGraph::default()
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the graph has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Adds a unit, wire-encoding its source term. Imports may name units
    /// not yet added; they are resolved by [`UnitGraph::plan`].
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::DuplicateUnit`] if the name is taken.
    pub fn add_unit(
        &mut self,
        name: &str,
        imports: &[&str],
        term: &src::Term,
    ) -> Result<(), DriverError> {
        if self.index.contains_key(name) {
            return Err(DriverError::DuplicateUnit(name.to_owned()));
        }
        self.index.insert(name.to_owned(), self.units.len());
        self.units.push(Unit {
            name: name.to_owned(),
            symbol: Symbol::intern(name),
            imports: imports.iter().map(|s| (*s).to_owned()).collect(),
            source: src::wire::encode(term),
            source_alpha: src::wire::fingerprint_alpha(term),
        });
        Ok(())
    }

    /// Replaces the source of an existing unit (an "edit" between
    /// incremental builds). Imports are unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::UnknownUnit`] if no unit has this name.
    pub fn update_unit(&mut self, name: &str, term: &src::Term) -> Result<(), DriverError> {
        let &i = self.index.get(name).ok_or_else(|| DriverError::UnknownUnit(name.to_owned()))?;
        self.units[i].source = src::wire::encode(term);
        self.units[i].source_alpha = src::wire::fingerprint_alpha(term);
        Ok(())
    }

    /// The unit with the given name.
    pub fn unit(&self, name: &str) -> Option<&Unit> {
        self.index.get(name).map(|&i| &self.units[i])
    }

    /// The unit at the given index.
    pub fn unit_at(&self, index: usize) -> &Unit {
        &self.units[index]
    }

    /// The index of the unit with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Iterates over the units in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Unit> {
        self.units.iter()
    }

    /// Validates the graph and computes the topological schedule.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::UnknownImport`] for a dangling import name,
    /// or [`DriverError::Cycle`] (listing the members of one cycle) when
    /// the import relation is not a DAG.
    pub fn plan(&self) -> Result<Plan, DriverError> {
        let n = self.units.len();
        let mut direct: Vec<Vec<usize>> = Vec::with_capacity(n);
        for unit in &self.units {
            let mut imports = Vec::with_capacity(unit.imports.len());
            for import in &unit.imports {
                let &i = self.index.get(import).ok_or_else(|| DriverError::UnknownImport {
                    unit: unit.name.clone(),
                    import: import.clone(),
                })?;
                imports.push(i);
            }
            direct.push(imports);
        }

        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree: Vec<usize> = vec![0; n];
        for (u, imports) in direct.iter().enumerate() {
            indegree[u] = imports.len();
            for &d in imports {
                dependents[d].push(u);
            }
        }

        // Kahn's algorithm with an insertion-ordered frontier, so the
        // schedule — and everything derived from it, fingerprints
        // included — is deterministic.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut frontier: Vec<usize> = (0..n).filter(|&u| indegree[u] == 0).collect();
        let mut cursor = 0;
        while cursor < frontier.len() {
            let u = frontier[cursor];
            cursor += 1;
            order.push(u);
            for &v in &dependents[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    frontier.push(v);
                }
            }
        }
        if order.len() != n {
            let cycle: Vec<String> =
                (0..n).filter(|&u| indegree[u] > 0).map(|u| self.units[u].name.clone()).collect();
            return Err(DriverError::Cycle(cycle));
        }

        // Transitive import telescopes, in schedule order.
        let mut position: Vec<usize> = vec![0; n];
        for (p, &u) in order.iter().enumerate() {
            position[u] = p;
        }
        let mut transitive: Vec<Vec<usize>> = vec![Vec::new(); n];
        // `member[t]` marks membership in the unit currently being
        // built, so the merge stays linear in the telescope sizes even
        // on chain-shaped graphs (a `Vec::contains` here would make
        // `plan` cubic on deep chains).
        let mut member: Vec<bool> = vec![false; n];
        for &u in &order {
            let mut seen: Vec<usize> = Vec::new();
            for &d in &direct[u] {
                for &t in transitive[d].iter().chain(std::iter::once(&d)) {
                    if !member[t] {
                        member[t] = true;
                        seen.push(t);
                    }
                }
            }
            for &t in &seen {
                member[t] = false;
            }
            seen.sort_unstable_by_key(|&t| position[t]);
            transitive[u] = seen;
        }

        // Critical-path priorities, in reverse schedule order: a sink
        // scores 1, everything else one more than its highest-scoring
        // dependent.
        let mut priority: Vec<u64> = vec![1; n];
        for &u in order.iter().rev() {
            for &v in &dependents[u] {
                priority[u] = priority[u].max(priority[v] + 1);
            }
        }

        Ok(Plan { order, direct, transitive, dependents, priority })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder as s;

    fn graph(edges: &[(&str, &[&str])]) -> UnitGraph {
        let mut g = UnitGraph::new();
        for (name, imports) in edges {
            g.add_unit(name, imports, &s::tt()).unwrap();
        }
        g
    }

    #[test]
    fn duplicate_units_are_rejected() {
        let mut g = graph(&[("a", &[])]);
        assert!(matches!(g.add_unit("a", &[], &s::tt()), Err(DriverError::DuplicateUnit(_))));
    }

    #[test]
    fn unknown_imports_are_rejected() {
        let g = graph(&[("a", &["ghost"])]);
        match g.plan() {
            Err(DriverError::UnknownImport { unit, import }) => {
                assert_eq!(unit, "a");
                assert_eq!(import, "ghost");
            }
            other => panic!("expected UnknownImport, got {other:?}"),
        }
    }

    #[test]
    fn cycles_are_detected_and_named() {
        let g = graph(&[("a", &["b"]), ("b", &["a"]), ("c", &[])]);
        match g.plan() {
            Err(DriverError::Cycle(members)) => {
                assert!(members.contains(&"a".to_owned()));
                assert!(members.contains(&"b".to_owned()));
                assert!(!members.contains(&"c".to_owned()));
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
        let self_loop = graph(&[("x", &["x"])]);
        assert!(matches!(self_loop.plan(), Err(DriverError::Cycle(_))));
    }

    #[test]
    fn forward_references_are_allowed() {
        // `a` imports `b`, which is added later.
        let g = graph(&[("a", &["b"]), ("b", &[])]);
        let plan = g.plan().unwrap();
        let b = g.index_of("b").unwrap();
        let a = g.index_of("a").unwrap();
        assert_eq!(plan.order, vec![b, a]);
    }

    #[test]
    fn diamond_schedules_topologically_with_transitive_telescopes() {
        let g = graph(&[
            ("base", &[]),
            ("left", &["base"]),
            ("right", &["base"]),
            ("top", &["left", "right"]),
        ]);
        let plan = g.plan().unwrap();
        let pos = |name: &str| plan.order.iter().position(|&u| g.unit_at(u).name == name).unwrap();
        assert!(pos("base") < pos("left"));
        assert!(pos("base") < pos("right"));
        assert!(pos("left") < pos("top"));
        assert!(pos("right") < pos("top"));
        // `top` sees all three transitively, base first.
        let top = g.index_of("top").unwrap();
        let names: Vec<&str> =
            plan.transitive[top].iter().map(|&u| g.unit_at(u).name.as_str()).collect();
        assert_eq!(names[0], "base");
        assert_eq!(names.len(), 3);
        // base has two dependents.
        let base = g.index_of("base").unwrap();
        assert_eq!(plan.dependents[base].len(), 2);
    }

    #[test]
    fn critical_path_priorities_measure_longest_chain_to_a_sink() {
        // leaf (no dependents) and a 3-chain feeding a shared root:
        //   leaf → root;  c0 → c1 → c2 → root
        let g = graph(&[
            ("leaf", &[]),
            ("c0", &[]),
            ("c1", &["c0"]),
            ("c2", &["c1"]),
            ("root", &["leaf", "c2"]),
        ]);
        let plan = g.plan().unwrap();
        let p = |name: &str| plan.priority[g.index_of(name).unwrap()];
        assert_eq!(p("root"), 1, "sinks score 1");
        assert_eq!(p("leaf"), 2);
        assert_eq!(p("c2"), 2);
        assert_eq!(p("c1"), 3);
        assert_eq!(p("c0"), 4, "the chain head owns the longest path");
        // Priorities are monotone along import edges.
        for (u, deps) in plan.direct.iter().enumerate() {
            for &d in deps {
                assert!(plan.priority[d] > plan.priority[u]);
            }
        }
    }

    #[test]
    fn update_unit_replaces_the_source() {
        let mut g = graph(&[("a", &[])]);
        let before = g.unit("a").unwrap().source.fingerprint();
        g.update_unit("a", &s::ff()).unwrap();
        let after = g.unit("a").unwrap().source.fingerprint();
        assert_ne!(before, after);
        assert!(matches!(g.update_unit("ghost", &s::tt()), Err(DriverError::UnknownUnit(_))));
    }
}
