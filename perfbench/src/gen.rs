//! The seeded workload generator: a layered DAG of units, each emitted as
//! *source text* plus its import list, and the seeded edit stream the
//! `edit_stream` workload replays.
//!
//! Every seed draws the same multiset of unit bodies and only shuffles
//! where they sit, how the layers wire together, and which units are
//! α-twins. The total work of an operation therefore barely moves
//! between seeds, which keeps run-to-run spread down to host noise.

use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::generate::{GeneratorConfig, TermGenerator};
use cccc_source::prelude;
use cccc_source::pretty::term_to_string;

/// SplitMix64: a tiny, fully specified PRNG, so a seed means the same
/// inputs on every build of the benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What a unit exports, and so how importers turn it into a `Bool`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Export {
    /// `Bool`, used as is.
    Bool,
    /// `Π A : ⋆. A → A → A`, a selector applied at `Bool` by importers.
    Poly,
    /// `Σ s : Bool. T`, of which importers take `fst`. Interface edits
    /// change `T` without changing what importers see.
    Pair,
}

/// The unit's own computation, a closed `Bool`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Church arithmetic: `is_even (n · n)`.
    Church(usize),
    /// `conversion_program(n)`: type-level computation decided by `[Conv]`.
    Conversion(usize),
    /// A program from the source crate's type-directed generator.
    Generated(u64),
    /// A literal (the root's own work: a seeded coin, so verdicts vary
    /// between seeds).
    Literal(bool),
}

/// One generated unit.
#[derive(Clone, Debug)]
pub struct UnitSpec {
    pub name: String,
    pub imports: Vec<String>,
    pub export: Export,
    pub work: Work,
    /// The unit this one is an α-twin of (same imports, α-equivalent body).
    pub twin_of: Option<usize>,
}

/// A generated graph; units are in a topological order and the last one
/// is the root.
#[derive(Clone, Debug)]
pub struct Graph {
    pub units: Vec<UnitSpec>,
}

/// Layers below the root.
const LAYERS: usize = 4;
/// Fan-in of each layer's core units (layer 0 imports nothing).
const FAN_IN: [usize; LAYERS] = [0, 1, 2, 3];
/// What each lower layer's core units compute and export. A seed permutes
/// the slots, so every seed does the same work in a differently wired graph.
/// (`Generated` is re-seeded per layer.)
const CORE: [(Work, Export); 6] = [
    (Work::Church(4), Export::Bool),
    (Work::Conversion(3), Export::Poly),
    (Work::Church(6), Export::Pair),
    (Work::Conversion(2), Export::Pair),
    (Work::Generated(0), Export::Bool),
    (Work::Church(5), Export::Poly),
];
/// The top layer's body, the same for each of its units: an interface
/// edit just below recompiles three of them, at the same cost whichever.
const TOP: (Work, Export) = (Work::Church(5), Export::Bool);
/// α-twins per layer: twin `t` copies the core unit holding `CORE[t]`,
/// so 8 of the 33 units are twins. The top layer has none, so every
/// unit of the layer below it has the same dependents.
const TWINS: [usize; LAYERS] = [3, 3, 2, 0];

impl Graph {
    /// The `cold_dag`-shaped graph for `seed`: per layer, the core units
    /// in a seeded order, each importing `FAN_IN` consecutive core units
    /// of the layer below from a seeded offset (so every core unit has
    /// the same in-degree and the cost of a seed's graph stays put), then
    /// the layer's twins. The root imports the top layer's core.
    pub fn generate(seed: u64) -> Graph {
        let mut rng = Rng::new(seed);
        let mut units: Vec<UnitSpec> = Vec::new();
        let mut below: Vec<usize> = Vec::new();
        for (layer, (&fan_in, &twins)) in FAN_IN.iter().zip(&TWINS).enumerate() {
            let mut order: Vec<usize> = (0..CORE.len()).collect();
            rng.shuffle(&mut order);
            let offset = rng.below(CORE.len());
            let mut core = Vec::with_capacity(CORE.len());
            for (position, &slot) in order.iter().enumerate() {
                let (work, export) = if layer + 1 == LAYERS { TOP } else { CORE[slot] };
                let work = match work {
                    Work::Generated(_) => Work::Generated(layer as u64),
                    other => other,
                };
                let imports = (0..fan_in)
                    .map(|d| units[below[(position + offset + d) % below.len()]].name.clone())
                    .collect();
                core.push(units.len());
                let name = format!("u{:02}", units.len());
                units.push(UnitSpec { name, imports, export, work, twin_of: None });
            }
            for t in 0..twins {
                let original =
                    core[order.iter().position(|&slot| slot == t).expect("slot present")];
                let twin = UnitSpec {
                    name: format!("u{:02}", units.len()),
                    twin_of: Some(original),
                    ..units[original].clone()
                };
                units.push(twin);
            }
            below = core;
        }
        let imports = below.iter().map(|&u| units[u].name.clone()).collect();
        units.push(UnitSpec {
            name: "root".to_owned(),
            imports,
            export: Export::Bool,
            work: Work::Literal(rng.next_u64() & 1 == 1),
            twin_of: None,
        });
        Graph { units }
    }

    pub fn root(&self) -> &UnitSpec {
        self.units.last().expect("graphs are non-empty")
    }

    pub fn index_of(&self, name: &str) -> usize {
        index_of(&self.units, name)
    }

    /// Share of units that are α-twins of another unit.
    pub fn twin_share(&self) -> f64 {
        self.units.iter().filter(|u| u.twin_of.is_some()).count() as f64 / self.units.len() as f64
    }

    /// Transitive dependents of `unit` (excluding itself).
    pub fn cone(&self, unit: usize) -> Vec<usize> {
        let mut inside = vec![false; self.units.len()];
        inside[unit] = true;
        for (i, spec) in self.units.iter().enumerate().skip(unit + 1) {
            if spec.imports.iter().any(|import| inside[self.index_of(import)]) {
                inside[i] = true;
            }
        }
        inside[unit] = false;
        (0..self.units.len()).filter(|&i| inside[i]).collect()
    }

    /// The source term of unit `u` in edit state `variant`.
    pub fn term(&self, u: usize, variant: &Variant) -> src::Term {
        let spec = &self.units[u];
        let views: Vec<src::Term> = spec
            .imports
            .iter()
            .map(|import| {
                let dep = &self.units[self.index_of(import)];
                match dep.export {
                    Export::Bool => s::var(import),
                    Export::Poly => {
                        s::app(s::app(s::app(s::var(import), s::bool_ty()), s::tt()), s::ff())
                    }
                    Export::Pair => s::fst(s::var(import)),
                }
            })
            .collect();
        let core = core_term(views, work_term(spec.work), variant);
        match spec.export {
            Export::Bool => core,
            Export::Poly => s::lam(
                "A",
                s::star(),
                s::lam(
                    "x",
                    s::var("A"),
                    s::lam("y", s::var("A"), s::ite(core, s::var("x"), s::var("y"))),
                ),
            ),
            Export::Pair => {
                let (ty, witness) = interface_payload(variant.iface);
                s::pair(core, witness, s::sigma("s", s::bool_ty(), ty))
            }
        }
    }

    /// The unit's source text in edit state `variant`.
    pub fn text(&self, u: usize, variant: &Variant) -> String {
        canonical_names(&term_to_string(&self.term(u, variant)))
    }

    /// Every unit's text in its initial state (twins α-renamed apart).
    pub fn texts(&self) -> Vec<String> {
        (0..self.units.len()).map(|u| self.text(u, &self.initial_variant(u))).collect()
    }

    pub fn initial_variant(&self, u: usize) -> Variant {
        Variant { tag: None, iface: 0, binder: u64::from(self.units[u].twin_of.is_some()) }
    }
}

fn index_of(units: &[UnitSpec], name: &str) -> usize {
    units.iter().position(|u| u.name == name).expect("imports name generated units")
}

/// A unit's edit state: which impl tag, which interface payload, and
/// which binder names its text uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    /// `Some(k)`: the body carries an unused `let` whose bound term
    /// encodes `k` (impl-only edit: new content, same interface).
    pub tag: Option<u64>,
    /// Selects the second component type of a `Pair` export.
    pub iface: u64,
    /// Suffix of the unit's own binder names (α-rename edit).
    pub binder: u64,
}

/// `let w = W in let c₁ = v₁ xor w in … in cₖ`.
fn core_term(views: Vec<src::Term>, work: src::Term, variant: &Variant) -> src::Term {
    let b = variant.binder;
    let w = format!("w{b}");
    let mut lets = vec![(w.clone(), work)];
    let mut previous = w;
    for (j, view) in views.into_iter().enumerate() {
        let name = format!("c{b}n{j}");
        let xor = s::ite(view, s::ite(s::var(&previous), s::ff(), s::tt()), s::var(&previous));
        lets.push((name.clone(), xor));
        previous = name;
    }
    let mut body = s::var(&previous);
    for (name, bound) in lets.into_iter().rev() {
        body = s::let_(&name, s::bool_ty(), bound, body);
    }
    match variant.tag {
        Some(k) => s::let_(&format!("t{b}"), s::bool_ty(), tag_term(k), body),
        None => body,
    }
}

/// Bits of the edit counter that an edit's tag or interface payload
/// spells out. Every edit spells exactly this many, so an edit's size and
/// cost do not depend on the counter's value; runs stay far below 2^16
/// edits.
const COUNTER_BITS: u32 = 16;

/// A `Bool` that evaluates to `true` and whose shape spells `k` in binary.
fn tag_term(k: u64) -> src::Term {
    (0..COUNTER_BITS).fold(s::tt(), |term, bit| {
        if k >> bit & 1 == 1 {
            s::ite(s::tt(), term, s::ff())
        } else {
            s::ite(s::ff(), s::ff(), term)
        }
    })
}

/// A type whose shape spells `k` in binary (`Π z : Bool` for a one,
/// `Π z : ⋆` for a zero, so every edit gives a type of one size), and an
/// inhabitant. The initial state, `k = 0`, is plain `Bool`.
fn interface_payload(k: u64) -> (src::Term, src::Term) {
    if k == 0 {
        return (s::bool_ty(), s::tt());
    }
    (0..COUNTER_BITS).fold((s::bool_ty(), s::tt()), |(ty, witness), bit| {
        let domain = if k >> bit & 1 == 1 { s::bool_ty() } else { s::star() };
        (s::pi("z", domain.clone(), ty), s::lam("z", domain, witness))
    })
}

fn work_term(work: Work) -> src::Term {
    match work {
        Work::Church(n) => s::app(
            prelude::church_is_even(),
            s::app(
                s::app(prelude::church_mul(), prelude::church_numeral(n)),
                prelude::church_numeral(n),
            ),
        ),
        Work::Conversion(n) => cccc_bench::conversion_program(n),
        Work::Generated(seed) => {
            let config = GeneratorConfig { max_depth: 3, ..GeneratorConfig::default() };
            TermGenerator::with_config(0xCCCC_0000 + seed, config).gen_ground_program()
        }
        Work::Literal(value) => s::bool_lit(value),
    }
}

/// Renumbers the `$n` subscripts of generated names in order of first
/// appearance, so a seed prints the same text whatever symbols the
/// process created before.
pub fn canonical_names(text: &str) -> String {
    let mut seen: Vec<String> = Vec::new();
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        out.push(c);
        if c != '$' {
            continue;
        }
        let mut digits = String::new();
        while let Some(&d) = chars.peek() {
            if !d.is_ascii_digit() {
                break;
            }
            digits.push(d);
            chars.next();
        }
        let position = seen.iter().position(|x| *x == digits).unwrap_or_else(|| {
            seen.push(digits.clone());
            seen.len() - 1
        });
        out.push_str(&position.to_string());
    }
    out
}

/// The three edit kinds, in the stream's 50/20/30 mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    ImplOnly,
    AlphaRename,
    Interface,
}

/// One edit: the unit, what kind, and its new text.
#[derive(Clone, Debug)]
pub struct Edit {
    pub unit: usize,
    #[cfg_attr(not(test), allow(dead_code))] // the stream's own tests check it
    pub kind: EditKind,
    pub text: String,
}

/// One cycle of the edit stream: 50% impl-only, 20% α-rename, 30%
/// interface edits, in a seeded order per cycle. A fixed mix keeps the
/// latency percentiles from moving with the luck of the draw.
const CYCLE: [EditKind; 10] = [
    EditKind::ImplOnly,
    EditKind::ImplOnly,
    EditKind::ImplOnly,
    EditKind::ImplOnly,
    EditKind::ImplOnly,
    EditKind::AlphaRename,
    EditKind::AlphaRename,
    EditKind::Interface,
    EditKind::Interface,
    EditKind::Interface,
];

/// The seeded edit stream over a graph's interior units, each edited in
/// turn in a seeded order. Every edit except an α-rename yields content
/// the session has not seen: each carries a fresh counter in its tag or
/// interface payload.
#[derive(Clone, Debug)]
pub struct EditStream {
    rng: Rng,
    counter: u64,
    variants: Vec<Variant>,
    cycle: [EditKind; 10],
    interior: Vec<usize>,
    interface_units: Vec<usize>,
    next_interior: usize,
    next_interface: usize,
}

impl EditStream {
    pub fn new(graph: &Graph, seed: u64) -> EditStream {
        let mut rng = Rng::new(seed ^ 0xED17_5EED);
        let n = graph.units.len();
        let root = n - 1;
        // Interior: units some non-root unit imports.
        let mut interior: Vec<usize> =
            (0..root).filter(|&u| graph.cone(u).iter().any(|&d| d != root)).collect();
        // Interface edits go to the `Pair` units just below the top layer:
        // their dependent cone is the top layer's importers plus the root,
        // the same size for every seed and well within a third of the graph.
        let top =
            graph.units[root].imports.iter().map(|name| graph.index_of(name)).collect::<Vec<_>>();
        let mut interface_units: Vec<usize> = interior
            .iter()
            .copied()
            .filter(|&u| {
                graph.units[u].export == Export::Pair
                    && graph.units[u].twin_of.is_none()
                    && top.iter().any(|&t| graph.units[t].imports.contains(&graph.units[u].name))
            })
            .collect();
        rng.shuffle(&mut interior);
        rng.shuffle(&mut interface_units);
        EditStream {
            rng,
            counter: 1,
            variants: (0..n).map(|u| graph.initial_variant(u)).collect(),
            cycle: CYCLE,
            interior,
            interface_units,
            next_interior: 0,
            next_interface: 0,
        }
    }

    pub fn next(&mut self, graph: &Graph) -> Edit {
        let position = (self.counter - 1) as usize % CYCLE.len();
        if position == 0 {
            self.rng.shuffle(&mut self.cycle);
        }
        self.counter += 1;
        let k = self.counter;
        let kind = self.cycle[position];
        let unit = if kind == EditKind::Interface {
            self.next_interface += 1;
            self.interface_units[(self.next_interface - 1) % self.interface_units.len()]
        } else {
            self.next_interior += 1;
            self.interior[(self.next_interior - 1) % self.interior.len()]
        };
        let variant = &mut self.variants[unit];
        match kind {
            EditKind::ImplOnly => variant.tag = Some(k),
            EditKind::AlphaRename => variant.binder = k,
            EditKind::Interface => variant.iface = k,
        }
        Edit { unit, kind, text: graph.text(unit, variant) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::parse::parse_term;
    use cccc_source::wire::fingerprint_alpha;
    use cccc_util::symbol::Symbol;

    fn check_all(graph: &Graph, texts: &[String]) {
        let mut env = src::Env::new();
        for (spec, text) in graph.units.iter().zip(texts) {
            let term = parse_term(text).expect("generated text parses");
            let ty = src::typecheck::infer(&env, &term)
                .unwrap_or_else(|e| panic!("unit `{}` ill-typed: {e}", spec.name));
            env.push_assumption(Symbol::intern(&spec.name), ty);
        }
    }

    #[test]
    fn every_generated_unit_type_checks() {
        for seed in [1, 2, 3] {
            let graph = Graph::generate(seed);
            check_all(&graph, &graph.texts());
        }
    }

    #[test]
    fn the_generator_is_deterministic_for_a_seed() {
        let (a, b) = (Graph::generate(7), Graph::generate(7));
        assert_eq!(a.texts(), b.texts());
        let imports = |g: &Graph| g.units.iter().map(|u| u.imports.clone()).collect::<Vec<_>>();
        assert_eq!(imports(&a), imports(&b));
        assert_ne!(a.texts(), Graph::generate(8).texts());
    }

    #[test]
    fn a_quarter_of_the_units_are_alpha_twins() {
        let graph = Graph::generate(5);
        assert_eq!(graph.units.len(), 33);
        assert!((graph.twin_share() - 8.0 / 33.0).abs() < 1e-9);
        let texts = graph.texts();
        for (u, spec) in graph.units.iter().enumerate() {
            let Some(original) = spec.twin_of else { continue };
            assert_ne!(texts[u], texts[original], "twins differ in text");
            let fp = |t: &str| fingerprint_alpha(&parse_term(t).unwrap());
            assert_eq!(fp(&texts[u]), fp(&texts[original]), "twins are α-equivalent");
            assert_eq!(spec.imports, graph.units[original].imports);
        }
    }

    #[test]
    fn edits_keep_the_graph_well_typed_and_make_new_content() {
        let graph = Graph::generate(11);
        let mut stream = EditStream::new(&graph, 11);
        let mut texts = graph.texts();
        let mut kinds = [0usize; 3];
        for _ in 0..40 {
            let before = texts.clone();
            let edit = stream.next(&graph);
            texts[edit.unit] = edit.text.clone();
            let fp = |t: &str| fingerprint_alpha(&parse_term(t).unwrap());
            let same_class = fp(&before[edit.unit]) == fp(&texts[edit.unit]);
            assert_eq!(same_class, edit.kind == EditKind::AlphaRename, "{:?}", edit.kind);
            assert_ne!(before[edit.unit], texts[edit.unit]);
            if edit.kind == EditKind::Interface {
                assert!(graph.cone(edit.unit).len() <= graph.units.len() / 3, "bounded cone");
            }
            kinds[edit.kind as usize] += 1;
        }
        check_all(&graph, &texts);
        assert!(kinds.iter().all(|&k| k > 0), "every edit kind occurs: {kinds:?}");
    }
}
