//! The three workloads: what set-up prepares and what one timed
//! operation does. Operations go through the driver's public API only.

use crate::gen::{Edit, EditStream, Graph};
use crate::oracle;
use cccc_core::pipeline::CompilerOptions;
use cccc_driver::{BuildReport, Session, UnitStatus};
use cccc_source as src;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAMES: [&str; 3] = ["cold_dag", "edit_stream", "restart_warm"];

/// One timed operation's outcome.
pub struct OpResult {
    pub ms: f64,
    pub report: BuildReport,
    /// Every unit ended `Compiled` or `Cached` and the build completed.
    pub complete: bool,
}

/// A generated graph, its texts, and the reference root verdict.
pub struct Prepared {
    pub graph: Graph,
    pub texts: Vec<String>,
    pub expected: bool,
}

impl Prepared {
    pub fn new(seed: u64) -> Result<Prepared, String> {
        let graph = Graph::generate(seed);
        let texts = graph.texts();
        let terms = parse_all(&texts)?;
        let units: Vec<(String, Vec<String>, src::Term)> = graph
            .units
            .iter()
            .zip(terms)
            .map(|(spec, term)| (spec.name.clone(), spec.imports.clone(), term))
            .collect();
        let expected = oracle::reference_verdict(&units)?;
        Ok(Prepared { graph, texts, expected })
    }

    pub fn root(&self) -> &str {
        &self.graph.root().name
    }
}

pub fn parse_all(texts: &[String]) -> Result<Vec<src::Term>, String> {
    texts.iter().map(|t| src::parse::parse_term(t).map_err(|e| e.to_string())).collect()
}

fn add_all(session: &mut Session, graph: &Graph, terms: &[src::Term]) -> Result<(), String> {
    for (spec, term) in graph.units.iter().zip(terms) {
        let imports: Vec<&str> = spec.imports.iter().map(String::as_str).collect();
        session.add_unit(&spec.name, &imports, term).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn complete(report: &BuildReport) -> bool {
    report.outcome.is_completed()
        && report
            .units
            .iter()
            .all(|u| matches!(u.status, UnitStatus::Compiled | UnitStatus::Cached))
}

/// A workload ready for its timed loop.
pub trait Workload {
    /// Runs one operation on `workers` threads, timing it.
    fn op(&mut self, workers: usize) -> Result<OpResult, String>;
    /// The session the last operation left behind.
    fn session(&self) -> &Session;
    fn session_mut(&mut self) -> &mut Session;
    fn prepared(&self) -> &Prepared;
    /// `(unit, text)` pairs the last operation parsed.
    fn parsed(&self) -> Vec<(usize, &str)>;
    /// The persistent store's directory, for store-backed workloads.
    fn store_dir(&self) -> Option<&Path>;
    /// Whether an operation starts its own session (else it edits one
    /// long-lived session).
    fn fresh_session(&self) -> bool;
    /// Untimed operations before the timed loop.
    fn warmup_ops(&self) -> usize;
    /// The build set-up ran over the initial graph (cold, two workers).
    fn setup_report(&self) -> &BuildReport;
}

/// Parse every unit, start a store-less session, build.
pub struct ColdDag {
    prep: Prepared,
    session: Session,
    setup_report: BuildReport,
}

impl ColdDag {
    pub fn setup(seed: u64) -> Result<ColdDag, String> {
        let prep = Prepared::new(seed)?;
        let (session, setup_report) = cold_build(&prep, Session::new(CompilerOptions::default()))?;
        Ok(ColdDag { prep, session, setup_report })
    }
}

/// Adds every unit of the initial graph to `session` and builds it.
fn cold_build(prep: &Prepared, mut session: Session) -> Result<(Session, BuildReport), String> {
    add_all(&mut session, &prep.graph, &parse_all(&prep.texts)?)?;
    let report = session.build(2).map_err(|e| e.to_string())?;
    if !complete(&report) {
        return Err(format!("initial build failed: {}", report.summary()));
    }
    Ok((session, report))
}

fn store_session(dir: &Path) -> Result<Session, String> {
    Session::with_store(CompilerOptions::default(), dir).map_err(|e| e.to_string())
}

impl Workload for ColdDag {
    fn op(&mut self, workers: usize) -> Result<OpResult, String> {
        let started = Instant::now();
        let terms = parse_all(&self.prep.texts)?;
        let mut session = Session::new(CompilerOptions::default());
        add_all(&mut session, &self.prep.graph, &terms)?;
        let report = session.build(workers).map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.session = session;
        Ok(OpResult { ms, complete: complete(&report), report })
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn prepared(&self) -> &Prepared {
        &self.prep
    }

    fn parsed(&self) -> Vec<(usize, &str)> {
        self.prep.texts.iter().map(String::as_str).enumerate().collect()
    }

    fn store_dir(&self) -> Option<&Path> {
        None
    }

    fn fresh_session(&self) -> bool {
        true
    }

    fn warmup_ops(&self) -> usize {
        3
    }

    fn setup_report(&self) -> &BuildReport {
        &self.setup_report
    }
}

/// A store populated at set-up; each operation is a process restart.
pub struct RestartWarm {
    prep: Prepared,
    dir: PathBuf,
    session: Session,
    setup_report: BuildReport,
}

impl RestartWarm {
    pub fn setup(seed: u64, dir: PathBuf) -> Result<RestartWarm, String> {
        let prep = Prepared::new(seed)?;
        let _ = std::fs::remove_dir_all(&dir);
        let (session, setup_report) = cold_build(&prep, store_session(&dir)?)?;
        Ok(RestartWarm { prep, dir, session, setup_report })
    }
}

impl Workload for RestartWarm {
    fn op(&mut self, workers: usize) -> Result<OpResult, String> {
        let started = Instant::now();
        let terms = parse_all(&self.prep.texts)?;
        let mut session = store_session(&self.dir)?;
        add_all(&mut session, &self.prep.graph, &terms)?;
        let report = session.build(workers).map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.session = session;
        // A restart must be answered wholly by the store.
        let answered = report.compiled_count() == 0;
        Ok(OpResult { ms, complete: complete(&report) && answered, report })
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn prepared(&self) -> &Prepared {
        &self.prep
    }

    fn parsed(&self) -> Vec<(usize, &str)> {
        self.prep.texts.iter().map(String::as_str).enumerate().collect()
    }

    fn store_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }

    fn fresh_session(&self) -> bool {
        true
    }

    fn warmup_ops(&self) -> usize {
        100
    }

    fn setup_report(&self) -> &BuildReport {
        &self.setup_report
    }
}

/// One long-lived session receiving a seeded edit stream. The timed loop
/// runs it without a store: each compiled unit writes two files, and on a
/// disk shared with other guests their creation and renaming took from
/// nothing to 0.8 ms per unit as the neighbours' traffic came and went
/// (median edit 2.0 ms store-less against 2.2–3.5 ms store-backed, in
/// alternating runs of one seed). The traced run keeps the store, so the
/// per-layer `store.*` metrics still cover the writes.
pub struct EditStreamWorkload {
    prep: Prepared,
    dir: Option<PathBuf>,
    session: Session,
    setup_report: BuildReport,
    stream: EditStream,
    last: Option<Edit>,
}

impl EditStreamWorkload {
    /// With `dir`, the session is backed by a store there.
    pub fn setup(seed: u64, dir: Option<PathBuf>) -> Result<EditStreamWorkload, String> {
        let prep = Prepared::new(seed)?;
        let session = match &dir {
            Some(dir) => {
                let _ = std::fs::remove_dir_all(dir);
                store_session(dir)?
            }
            None => Session::new(CompilerOptions::default()),
        };
        let (session, setup_report) = cold_build(&prep, session)?;
        let stream = EditStream::new(&prep.graph, seed);
        Ok(EditStreamWorkload { prep, dir, session, setup_report, stream, last: None })
    }
}

impl Workload for EditStreamWorkload {
    fn op(&mut self, workers: usize) -> Result<OpResult, String> {
        let edit = self.stream.next(&self.prep.graph);
        let name = self.prep.graph.units[edit.unit].name.clone();
        let started = Instant::now();
        let term = src::parse::parse_term(&edit.text).map_err(|e| e.to_string())?;
        self.session.update_unit(&name, &term).map_err(|e| e.to_string())?;
        let report = self.session.build(workers).map_err(|e| e.to_string())?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.last = Some(edit);
        Ok(OpResult { ms, complete: complete(&report), report })
    }

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn prepared(&self) -> &Prepared {
        &self.prep
    }

    fn parsed(&self) -> Vec<(usize, &str)> {
        self.last.iter().map(|edit| (edit.unit, edit.text.as_str())).collect()
    }

    fn store_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn fresh_session(&self) -> bool {
        false
    }

    /// A fresh session's edits get faster over its first couple of
    /// thousand operations (p50 about 4.4 ms falling to 3.0 ms) and then
    /// level off. Timing from the start would report a point on that
    /// slope set by how many operations the host got through.
    fn warmup_ops(&self) -> usize {
        2000
    }

    fn setup_report(&self) -> &BuildReport {
        &self.setup_report
    }
}

/// Builds the named workload's state: everything `setup_s` covers.
/// `traced` selects the traced run's variant (see [`EditStreamWorkload`]).
pub fn setup(
    name: &str,
    seed: u64,
    scratch: &Path,
    traced: bool,
) -> Result<Box<dyn Workload>, String> {
    let dir = scratch.join(format!("{name}-{}", std::process::id()));
    Ok(match name {
        "cold_dag" => Box::new(ColdDag::setup(seed)?),
        "edit_stream" => Box::new(EditStreamWorkload::setup(seed ^ 0xED17, traced.then_some(dir))?),
        "restart_warm" => Box::new(RestartWarm::setup(seed ^ 0x5EA7, dir)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}
