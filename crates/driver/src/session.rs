//! The driver session: critical-path scheduling of compilation units
//! onto parallel workers, with the pipeline re-expressed as memoized,
//! dependency-tracked queries whose results can outlive the process.
//!
//! A [`Session`] owns a [`UnitGraph`], the artifact table
//! ([`crate::cache`]), optionally a persistent [`ArtifactStore`]
//! ([`Session::with_store`]), the set of verified verdicts, and the
//! [`CompilerOptions`] every unit is compiled with. [`Session::build`]
//! validates the graph, then runs a work-stealing pool of OS threads:
//! each worker owns its thread's CC/CC-CC interners and memo tables (the
//! kernel's handles are `!Send` by design), picks ready units off the
//! shared frontier *critical-path-first* (longest chain to a sink,
//! [`Plan::priority`]), imports its dependencies' *interfaces* through
//! the wire codec, and then answers the unit from two queries (see
//! [`crate::query`]):
//!
//! - the **artifact** query (`unit → cc-artifact`) reuses a
//!   fingerprint-matching compiled artifact — from memory or from disk —
//!   and otherwise runs the typecheck and translate phases. The table is
//!   keyed by content and single-flight: the first unit to want a key
//!   claims it and runs the whole unit, and α-twins wait for that claim,
//!   so each α-class is loaded or compiled, and verified, once;
//! - the **verified** query (`unit → verified`), run on whichever
//!   artifact the first query produced, reuses the end-to-end
//!   verification verdict — from the session's set or from a tiny
//!   on-disk record, so even a fresh process skips the check and verify
//!   phases — and otherwise runs them.
//!
//! The artifact key folds the dependencies' *interface* fingerprints,
//! not their sources — that is **early cutoff**: an implementation-only
//! edit upstream re-runs the edited unit's phases but re-executes zero
//! phases of any dependent, because the dependency's *output* did not
//! change. A no-change rebuild therefore recomputes a few hashes and
//! runs nothing — and with a store attached, so does the first build of
//! a *fresh process* over unchanged sources.

use crate::cache::{Artifact, ArtifactCache, CacheStats, CacheTier, Lookup};
use crate::chaos::PanicPlan;
use crate::graph::{Plan, Unit, UnitGraph};
use crate::poison::PoisonedInterface;
use crate::query::{self, PhaseRuns, QueryCounts};
use crate::store::{ArtifactStore, FaultPlan, GcReport, StoreBudget};
use crate::DriverError;
use cccc_core::pipeline::{
    cache_snapshot, BuildMetrics, BuildOutcome, CacheReport, Compilation, CompileError, Compiler,
    CompilerOptions, PhaseNanos, StoreStats,
};
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::cancel::{self, CancelReason, CancelToken};
use cccc_util::diag::{diagnostics_to_json, json_string, Diagnostic};
use cccc_util::panics;
use cccc_util::trace::{self, BuildTrace, TraceSink};
use cccc_util::wire::{Fingerprint, WireTerm};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How one unit fared in a build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// At least one pipeline phase executed ([`UnitReport::phase_runs`]
    /// says which — a verify-only re-run reports `Compiled` with only
    /// that phase marked).
    Compiled,
    /// Every phase was answered from caches: a fingerprint-matching
    /// artifact plus a memoized (or stored) verification verdict.
    /// Nothing re-ran.
    Cached,
    /// The pipeline failed (the message names the stage).
    Failed(String),
    /// An import failed (or was itself skipped), so this unit never ran.
    /// Cancelled and deadline-stopped units land here too, with the stop
    /// reason as the message.
    Skipped(String),
    /// The unit's compile panicked. The panic was caught on the worker
    /// ([`cccc_util::panics::capture`]), the payload preserved here and
    /// as an `E0500` diagnostic, and the worker returned to the
    /// frontier — dependents are skipped (or poisoned, in keep-going
    /// mode) exactly as if the unit had failed a phase.
    Panicked {
        /// The panic payload, with its source location when known.
        message: String,
    },
    /// Keep-going mode only: an import was poisoned, so this unit was
    /// type-checked against the partial interface instead of being
    /// skipped. `upstream` names the root-cause units (sorted,
    /// deduplicated) — the provenance of the poison, not necessarily the
    /// direct imports.
    Poisoned {
        /// The units whose own errors started the poison.
        upstream: Vec<String>,
    },
}

impl UnitStatus {
    /// Whether the unit ended with a usable artifact.
    pub fn is_ok(&self) -> bool {
        matches!(self, UnitStatus::Compiled | UnitStatus::Cached)
    }
}

/// Per-unit diagnostics for one build.
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The unit's name.
    pub name: String,
    /// How the unit fared.
    pub status: UnitStatus,
    /// Which cache tier answered, for [`UnitStatus::Cached`] units
    /// (`None` for compiled/failed/skipped ones).
    pub cached_from: Option<CacheTier>,
    /// Wall time spent on the unit (fingerprinting + cache lookup +
    /// compile).
    pub duration: Duration,
    /// The unit's artifact-query key for this build (its input
    /// fingerprint: source ⊕ dependency interfaces ⊕ option bits).
    pub fingerprint: Fingerprint,
    /// Which worker handled the unit.
    pub worker: usize,
    /// Interner and conversion-memo activity on the worker thread while
    /// running this unit's phases. `None` for cached/skipped units.
    pub caches: Option<CacheReport>,
    /// Words in the unit's wire-encoded source.
    pub source_words: usize,
    /// Words in the wire-encoded compiled term (0 unless compiled or
    /// cached).
    pub target_words: usize,
    /// Wall time per pipeline phase (measured whether or not tracing is
    /// on); `None` for cached, failed, and skipped units. A phase the
    /// queries skipped reports 0 here and `false` in
    /// [`UnitReport::phase_runs`]. [`UnitReport::duration`] remains the
    /// total including fingerprinting, cache lookup, and wire
    /// transcoding.
    pub phases: Option<PhaseNanos>,
    /// Which phases actually executed (completed successfully) for this
    /// unit — the per-unit observable behind the build's
    /// [`BuildReport::queries`] totals. All-false for cached, failed,
    /// and skipped units.
    pub phase_runs: PhaseRuns,
    /// Structured diagnostics the unit produced. Empty outside keep-going
    /// mode except for failed units, whose strict pipeline error is
    /// folded into one coded diagnostic; in keep-going mode, failed and
    /// poisoned units carry their full multi-error set.
    pub diagnostics: Vec<Diagnostic>,
}

/// The outcome of one [`Session::build`].
#[derive(Clone, Debug)]
pub struct BuildReport {
    /// Per-unit diagnostics, in schedule (topological) order.
    pub units: Vec<UnitReport>,
    /// How the build ended: ran to completion, cancelled through the
    /// session's [`CancelToken`], or stopped by a
    /// [`CompilerOptions::build_deadline`] /
    /// [`CompilerOptions::unit_deadline`]. A non-completed build still
    /// reports every unit — the ones the stop overtook as
    /// [`UnitStatus::Skipped`].
    pub outcome: BuildOutcome,
    /// Number of workers the pool ran.
    pub workers: usize,
    /// End-to-end wall time of the build.
    pub wall_time: Duration,
    /// Artifact-table activity during this build.
    pub cache: CacheStats,
    /// Per-phase execution totals — how many units actually ran each
    /// phase this build, the rest having been cut off by the query
    /// layer. The edit-script gates assert on these.
    pub queries: QueryCounts,
    /// Persistent-store activity during this build (`None` when the
    /// session has no store attached). Activity counters only — the
    /// size fields are zero here, because sizing the store walks the
    /// directory and a warm rebuild must not pay for that inside the
    /// build; ask [`Session::store_stats`] when sizes are wanted.
    pub store: Option<StoreStats>,
    /// What the post-build store GC sweep did (`None` unless a store
    /// *and* a [`Session::set_store_budget`] budget are configured).
    pub gc: Option<GcReport>,
    /// Every span and event the build recorded (`None` unless
    /// [`Session::set_tracing`] enabled tracing). Export with
    /// [`BuildTrace::to_chrome_json`].
    pub trace: Option<BuildTrace>,
    /// Metrics distilled from the trace, with
    /// [`BuildMetrics::critical_path_ns`] filled from the unit graph
    /// (`None` on untraced builds).
    pub metrics: Option<BuildMetrics>,
    /// The dependency-graph critical path in nanoseconds — the longest
    /// chain of per-unit durations a build of this graph cannot go
    /// below — computed on every build, traced or not.
    pub critical_path_ns: u64,
}

impl BuildReport {
    /// Units that ran at least one pipeline phase.
    pub fn compiled_count(&self) -> usize {
        self.units.iter().filter(|u| u.status == UnitStatus::Compiled).count()
    }

    /// Units answered entirely from the caches (either tier).
    pub fn cached_count(&self) -> usize {
        self.units.iter().filter(|u| u.status == UnitStatus::Cached).count()
    }

    /// Units answered from the *persistent* tier specifically (loaded
    /// from disk, e.g. after a process restart).
    pub fn disk_cached_count(&self) -> usize {
        self.units.iter().filter(|u| u.cached_from == Some(CacheTier::Disk)).count()
    }

    /// Units that failed outright.
    pub fn failed_count(&self) -> usize {
        self.units.iter().filter(|u| matches!(u.status, UnitStatus::Failed(_))).count()
    }

    /// Units skipped because an import failed.
    pub fn skipped_count(&self) -> usize {
        self.units.iter().filter(|u| matches!(u.status, UnitStatus::Skipped(_))).count()
    }

    /// Units checked against a poisoned import (keep-going mode only).
    pub fn poisoned_count(&self) -> usize {
        self.units.iter().filter(|u| matches!(u.status, UnitStatus::Poisoned { .. })).count()
    }

    /// Units whose compile panicked (caught and isolated on the worker).
    pub fn panicked_count(&self) -> usize {
        self.units.iter().filter(|u| matches!(u.status, UnitStatus::Panicked { .. })).count()
    }

    /// The caught panic payloads, paired with their unit names, in
    /// schedule order.
    pub fn panics(&self) -> Vec<(&str, &str)> {
        self.units
            .iter()
            .filter_map(|u| match &u.status {
                UnitStatus::Panicked { message } => Some((u.name.as_str(), message.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Every diagnostic any unit produced, paired with its unit name, in
    /// schedule order.
    pub fn all_diagnostics(&self) -> Vec<(&str, &Diagnostic)> {
        self.units
            .iter()
            .flat_map(|u| u.diagnostics.iter().map(move |d| (u.name.as_str(), d)))
            .collect()
    }

    /// Total error-severity diagnostics across all units.
    pub fn error_count(&self) -> usize {
        self.all_diagnostics().iter().filter(|(_, d)| d.is_error()).count()
    }

    /// The root causes of every poison in this build: the sorted,
    /// deduplicated union of the [`UnitStatus::Poisoned`] `upstream`
    /// lists. Empty outside keep-going mode or on clean builds.
    pub fn poison_roots(&self) -> Vec<String> {
        let mut roots: Vec<String> = self
            .units
            .iter()
            .filter_map(|u| match &u.status {
                UnitStatus::Poisoned { upstream } => Some(upstream.iter().cloned()),
                _ => None,
            })
            .flatten()
            .collect();
        roots.sort();
        roots.dedup();
        roots
    }

    /// The build's diagnostics as a machine-readable JSON array of
    /// `{"unit": …, "diagnostics": […]}` objects, one per unit that
    /// produced any (see [`cccc_util::diag::Diagnostic::to_json`] for the
    /// per-diagnostic schema).
    pub fn diagnostics_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for unit in &self.units {
            if unit.diagnostics.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"unit\":{},\"diagnostics\":{}}}",
                json_string(&unit.name),
                diagnostics_to_json(&unit.diagnostics)
            ));
        }
        out.push(']');
        out
    }

    /// Whether every unit produced an artifact.
    pub fn is_success(&self) -> bool {
        self.units.iter().all(|u| u.status.is_ok())
    }

    /// The first failed unit, if any.
    pub fn first_failure(&self) -> Option<&UnitReport> {
        self.units.iter().find(|u| matches!(u.status, UnitStatus::Failed(_)))
    }

    /// Per-phase totals summed over the units that entered the pipeline
    /// (cached and skipped units contribute nothing).
    pub fn phase_totals(&self) -> PhaseNanos {
        self.units
            .iter()
            .filter_map(|u| u.phases.as_ref())
            .fold(PhaseNanos::default(), |acc, p| acc.merged(p))
    }

    /// A one-line human summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} units on {} workers in {:?}: {} compiled, {} cached, {} failed, {} skipped",
            self.units.len(),
            self.workers,
            self.wall_time,
            self.compiled_count(),
            self.cached_count(),
            self.failed_count(),
            self.skipped_count(),
        );
        let poisoned = self.poisoned_count();
        if poisoned > 0 {
            line.push_str(&format!(", {poisoned} poisoned"));
        }
        let panicked = self.panicked_count();
        if panicked > 0 {
            line.push_str(&format!(", {panicked} panicked"));
        }
        if !self.outcome.is_completed() {
            line.push_str(&format!(" [{}]", self.outcome));
        }
        line
    }
}

/// A parallel, incremental multi-unit compilation session.
///
/// The single-program [`Compiler`] is the degenerate case: a session with
/// one unit and no imports ([`Session::single_program`]) compiles exactly
/// what [`Compiler::compile_closed`] compiles, with the same verification
/// verdicts — the differential suites pin this down.
pub struct Session {
    graph: UnitGraph,
    options: CompilerOptions,
    cache: ArtifactCache,
    store: Option<ArtifactStore>,
    /// Verify keys ([`query::verify_key`]) whose verdict this session
    /// has established or read from the store. Content-addressed, so
    /// α-equivalent units check and verify once.
    verified: Mutex<HashSet<Fingerprint>>,
    /// When set, every [`Session::build`] ends with a store GC sweep
    /// down to this byte budget, protecting the keys reachable from the
    /// build that just finished.
    store_budget: Option<StoreBudget>,
    /// The session's cancellation token: installed on every worker
    /// thread for the duration of a build, observed at claim points,
    /// phase boundaries, fuel checkpoints, and store retries. Handed out
    /// by [`Session::cancel_handle`]; also tripped by the deadline
    /// watchdog and the deterministic [`Session::set_cancel_after_units`]
    /// test hook.
    cancel: CancelToken,
    /// When set, the token is cancelled as soon as this many units have
    /// settled (0 = before the first claim). Deterministic mid-build
    /// cancellation for the chaos and sweep suites.
    cancel_after: Option<usize>,
    /// When set, each unit entering the pipeline ticks the plan — the
    /// chaos harness's injected-panic hook.
    panic_plan: Option<Arc<PanicPlan>>,
    results: HashMap<String, Arc<Artifact>>,
    poisons: HashMap<String, Arc<PoisonedInterface>>,
    tracing: bool,
}

/// What a settled unit published for its dependents: a compiled artifact,
/// or (keep-going mode only) a poisoned interface. A `None` slot means
/// the unit published nothing — it failed without keep-going, or was
/// itself skipped — and dependents are skipped.
#[derive(Clone)]
enum Outcome {
    Built(Arc<Artifact>),
    Poisoned(Arc<PoisonedInterface>),
}

/// A frontier entry: units are released critical-path-first (highest
/// [`Plan::priority`]), with insertion order as the deterministic
/// tie-break, so the scheduler starts long chains before wide batches of
/// leaves and a skewed DAG's makespan tracks its critical path.
#[derive(PartialEq, Eq)]
struct ReadyUnit {
    priority: u64,
    index: usize,
}

impl Ord for ReadyUnit {
    fn cmp(&self, other: &ReadyUnit) -> Ordering {
        // Max-heap: higher priority first, then *lower* index.
        self.priority.cmp(&other.priority).then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for ReadyUnit {
    fn partial_cmp(&self, other: &ReadyUnit) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Scheduler state shared by the worker pool.
struct SchedState {
    ready: BinaryHeap<ReadyUnit>,
    pending: Vec<usize>,
    outcomes: Vec<Option<Outcome>>,
    reports: Vec<Option<UnitReport>>,
    remaining: usize,
    /// When each in-flight unit was claimed (`None` once it settles) —
    /// the deadline watchdog scans these.
    claimed_at: Vec<Option<Instant>>,
    /// Units the watchdog flagged over the per-unit deadline (sorted,
    /// deduplicated on insert); reported in
    /// [`BuildOutcome::DeadlineExceeded`].
    overran: Vec<String>,
}

/// Everything a worker needs for one build, bundled so the query-layer
/// helpers don't take ten parameters each. Shared by reference across
/// the pool.
struct BuildCtx<'a> {
    graph: &'a UnitGraph,
    plan: &'a Plan,
    options: CompilerOptions,
    cache: &'a ArtifactCache,
    verified: &'a Mutex<HashSet<Fingerprint>>,
    store: Option<&'a ArtifactStore>,
    cancel: CancelToken,
    cancel_after: Option<usize>,
    panic_plan: Option<Arc<PanicPlan>>,
}

impl Session {
    /// An empty session compiling with the given options; artifacts are
    /// cached in memory only and die with the session.
    pub fn new(options: CompilerOptions) -> Session {
        Session {
            graph: UnitGraph::new(),
            options,
            cache: ArtifactCache::default(),
            store: None,
            verified: Mutex::new(HashSet::new()),
            store_budget: None,
            cancel: CancelToken::new(),
            cancel_after: None,
            panic_plan: None,
            results: HashMap::new(),
            poisons: HashMap::new(),
            tracing: false,
        }
    }

    /// An empty session whose artifact cache is backed by the persistent
    /// store at `store_dir` (created if absent). Compiles write through
    /// to the store; cache misses consult it; a *new* session — in this
    /// process or a later one — pointed at the same directory starts its
    /// first build warm.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Store`] when the directory cannot be
    /// created. Corrupt or stale blobs inside a successfully opened
    /// store are *not* errors — they read as cache misses.
    pub fn with_store(
        options: CompilerOptions,
        store_dir: impl AsRef<std::path::Path>,
    ) -> Result<Session, DriverError> {
        let store =
            ArtifactStore::open(store_dir).map_err(|e| DriverError::Store(e.to_string()))?;
        Ok(Session { store: Some(store), ..Session::new(options) })
    }

    /// Installs a deterministic fault plan on the persistent store (no-op
    /// without one): the chosen file-system operations fail — or read
    /// short — when their per-operation counters reach the planned
    /// indices. Storage faults must degrade to cache misses, never wrong
    /// answers; the fault-injection suites drive this.
    pub fn set_store_faults(&mut self, plan: FaultPlan) {
        if let Some(store) = &self.store {
            store.set_faults(plan);
        }
    }

    /// Caps the persistent store at `budget` bytes: every build ends
    /// with a GC sweep ([`ArtifactStore::gc`]) that protects the keys
    /// reachable from the build that just ran — artifact keys and
    /// verified-record keys for every unit that produced an artifact —
    /// and evicts the rest, least recently used first. `None` (the
    /// default) disables sweeping. No-op without a store.
    pub fn set_store_budget(&mut self, budget: Option<StoreBudget>) {
        self.store_budget = budget;
    }

    /// Injects artificial latency into every store blob load (applied
    /// outside all session locks) so tests can observe disk-load
    /// concurrency deterministically. No-op without a store.
    pub fn set_store_read_delay(&mut self, delay: Duration) {
        if let Some(store) = &self.store {
            store.set_read_delay(delay);
        }
    }

    /// A clone of the session's cancellation token. Cancelling it — from
    /// any thread, a signal handler, a UI — stops the *next* claim on
    /// every worker and trips the cooperative checkpoints inside running
    /// units (fuel ticks, store retries), so an in-flight
    /// [`Session::build`] winds down within roughly one unit's compile
    /// time and returns a partial report with
    /// [`BuildOutcome::Cancelled`]. The build consumes the cancellation:
    /// the token is reset when the report is assembled, so the following
    /// build starts live.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cancels the session's token deterministically once `count` units
    /// have settled (0 cancels before the first claim); `None` disables.
    /// The chaos harness and the cancellation sweep drive this — it
    /// exercises exactly the code paths an asynchronous
    /// [`Session::cancel_handle`] cancellation takes, minus the race.
    pub fn set_cancel_after_units(&mut self, count: Option<usize>) {
        self.cancel_after = count;
    }

    /// Installs (or clears) an injected-panic plan: each unit entering
    /// the pipeline ticks it, and the planned tick panics on its worker.
    /// The chaos harness uses this to prove panic isolation; see
    /// [`PanicPlan::on_nth_compile`].
    pub fn set_panic_plan(&mut self, plan: Option<Arc<PanicPlan>>) {
        self.panic_plan = plan;
    }

    /// A session holding a single closed unit named `main` — the existing
    /// single-program compiler re-expressed as a one-unit session.
    pub fn single_program(options: CompilerOptions, term: &src::Term) -> Session {
        let mut session = Session::new(options);
        session.add_unit("main", &[], term).expect("fresh session has no duplicate");
        session
    }

    /// The options every unit is compiled with.
    pub fn options(&self) -> CompilerOptions {
        self.options
    }

    /// Replaces the compiler options for subsequent builds. Every query
    /// key bakes in the engine bit ([`CompilerOptions::use_nbe`]), the
    /// only option that changes what a successful compile produces, so
    /// switching options never serves a stale result. Switching *back*
    /// is only partly warm: after each build the artifact table keeps
    /// only each unit name's latest key, so every unit the other engine
    /// built re-runs typecheck and translate, while the verified set
    /// keeps both engines' verdicts, so check and verify stay cut off.
    pub fn set_options(&mut self, options: CompilerOptions) {
        self.options = options;
    }

    /// Enables (or disables) build tracing: subsequent [`Session::build`]
    /// calls collect spans and events from every worker into
    /// [`BuildReport::trace`] and distill them into
    /// [`BuildReport::metrics`]. Off by default — a disabled sink costs
    /// one thread-local boolean read per instrumentation point.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Whether build tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The unit graph.
    pub fn graph(&self) -> &UnitGraph {
        &self.graph
    }

    /// Adds a unit (see [`UnitGraph::add_unit`]).
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
        self.graph.add_unit(name, imports, term)
    }

    /// Replaces a unit's source between builds (see
    /// [`UnitGraph::update_unit`]); the next build re-runs exactly the
    /// queries the edit invalidates.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::UnknownUnit`] if no unit has this name.
    pub fn update_unit(&mut self, name: &str, term: &src::Term) -> Result<(), DriverError> {
        self.graph.update_unit(name, term)
    }

    /// Artifact-table counters accumulated over the session.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Persistent-store counters and sizes (`None` without a store).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(ArtifactStore::stats)
    }

    /// Drops every cached artifact *and* every verified verdict from
    /// memory (turns the next build cold in this session; a persistent
    /// store, if attached, still answers).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
        self.verified.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
        self.results.clear();
        self.poisons.clear();
    }

    /// Deletes every blob and verified record from the persistent store
    /// (no-op without one), so the next build after
    /// [`Session::clear_cache`] is cold on disk too.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::Store`] on a deletion failure.
    pub fn wipe_store(&mut self) -> Result<(), DriverError> {
        match &self.store {
            Some(store) => store.wipe().map_err(|e| DriverError::Store(e.to_string())),
            None => Ok(()),
        }
    }

    /// The artifact the last build produced for `name`, if any.
    pub fn artifact(&self, name: &str) -> Option<Arc<Artifact>> {
        self.results.get(name).cloned()
    }

    /// The poisoned interface the last keep-going build left for `name`,
    /// if the unit failed or was poisoned (see [`crate::poison`]). `None`
    /// for units that built cleanly, were skipped, or outside keep-going
    /// mode.
    pub fn poisoned_interface(&self, name: &str) -> Option<Arc<PoisonedInterface>> {
        self.poisons.get(name).cloned()
    }

    /// The compiled CC-CC term for `name`, decoded into the calling
    /// thread's interner.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::NotBuilt`] before a successful build of the
    /// unit, or [`DriverError::Wire`] on a corrupt artifact.
    pub fn target_term(&self, name: &str) -> Result<tgt::Term, DriverError> {
        self.decode_target(name, Artifact::target)
    }

    /// One CC-CC section of `name`'s artifact, decoded into the calling
    /// thread's interner.
    fn decode_target(
        &self,
        name: &str,
        section: fn(&Artifact) -> Result<WireTerm, String>,
    ) -> Result<tgt::Term, DriverError> {
        let artifact = self.artifact(name).ok_or_else(|| DriverError::NotBuilt(name.to_owned()))?;
        let wire = section(&artifact).map_err(DriverError::Wire)?;
        tgt::wire::decode(&wire).map_err(|e| DriverError::Wire(e.to_string()))
    }

    /// The exported interface (inferred CC type) of `name`, decoded into
    /// the calling thread's interner.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::NotBuilt`] before a successful build of the
    /// unit, or [`DriverError::Wire`] on a corrupt artifact.
    pub fn interface(&self, name: &str) -> Result<src::Term, DriverError> {
        let artifact = self.artifact(name).ok_or_else(|| DriverError::NotBuilt(name.to_owned()))?;
        let source_ty = artifact.source_ty().map_err(DriverError::Wire)?;
        src::wire::decode(&source_ty).map_err(|e| DriverError::Wire(e.to_string()))
    }

    /// Compiles every unit, `workers` at a time, answering each phase
    /// from the query layer where it can.
    ///
    /// # Errors
    ///
    /// Returns a [`DriverError`] if the graph itself is invalid (dangling
    /// import or cycle). Per-unit pipeline failures do *not* abort the
    /// build: they are reported per unit ([`UnitStatus::Failed`]) and
    /// their dependents are skipped.
    pub fn build(&mut self, workers: usize) -> Result<BuildReport, DriverError> {
        let plan = self.graph.plan()?;
        let unit_count = self.graph.len();
        let workers = workers.max(1).min(unit_count.max(1));
        let started = Instant::now();
        let cache_before = self.cache.stats();
        let store_before = self.store.as_ref().map(ArtifactStore::counters);

        let ctx = BuildCtx {
            graph: &self.graph,
            plan: &plan,
            options: self.options,
            cache: &self.cache,
            verified: &self.verified,
            store: self.store.as_ref(),
            cancel: self.cancel.clone(),
            cancel_after: self.cancel_after,
            panic_plan: self.panic_plan.clone(),
        };
        // Cancel-before-anything: the sweep suites ask for the smallest
        // partial report — every unit skipped, nothing claimed.
        if self.cancel_after == Some(0) {
            self.cancel.cancel_with(CancelReason::User);
        }

        let state = Mutex::new(SchedState {
            ready: plan
                .order
                .iter()
                .copied()
                .filter(|&u| plan.direct[u].is_empty())
                .map(|u| ReadyUnit { priority: plan.priority[u], index: u })
                .collect(),
            pending: (0..unit_count).map(|u| plan.direct[u].len()).collect(),
            outcomes: vec![None; unit_count],
            reports: vec![None; unit_count],
            remaining: unit_count,
            claimed_at: vec![None; unit_count],
            overran: Vec::new(),
        });
        let ready_signal = Condvar::new();
        let sink = TraceSink::new(self.tracing);
        let watchdog =
            self.options.build_deadline.is_some() || self.options.unit_deadline.is_some();

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let state = &state;
                let ready_signal = &ready_signal;
                let ctx = &ctx;
                let sink = &sink;
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(scope, move || {
                        let _trace_guard = sink.install(worker);
                        // Fuel checkpoints and store retries poll the ambient
                        // token; install it for this worker's whole build.
                        let _cancel_guard = cancel::install(&ctx.cancel);
                        worker_loop(worker, ctx, state, ready_signal);
                    })
                    .expect("the OS spawns a build worker");
            }
            if watchdog {
                let state = &state;
                let ctx = &ctx;
                scope.spawn(move || watchdog_loop(ctx, state, started));
            }
        });

        let mut state = state.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.cache.finish_build();
        self.results.clear();
        self.poisons.clear();
        for (u, outcome) in state.outcomes.iter().enumerate() {
            match outcome {
                Some(Outcome::Built(artifact)) => {
                    self.results.insert(self.graph.unit_at(u).name.clone(), Arc::clone(artifact));
                }
                Some(Outcome::Poisoned(poison)) => {
                    self.poisons.insert(self.graph.unit_at(u).name.clone(), Arc::clone(poison));
                }
                None => {}
            }
        }
        // Sweep the store down to its budget while the reachable set is
        // fresh — before the store-counter delta below, so the sweep's
        // eviction counters land in this build's report.
        let gc = match (self.store_budget, ctx.store) {
            (Some(budget), Some(store)) => Some(store.gc(&self.live_store_keys(&plan), budget)),
            _ => None,
        };
        // Critical path over *this build's* measured per-unit durations:
        // the longest dependency chain, the schedule-independent lower
        // bound the makespan is reported against.
        let durations: Vec<u64> = (0..unit_count)
            .map(|u| state.reports[u].as_ref().map_or(0, |r| r.duration.as_nanos() as u64))
            .collect();
        let mut chain = vec![0u64; unit_count];
        for &u in plan.order.iter().rev() {
            let downstream = plan.dependents[u].iter().map(|&v| chain[v]).max().unwrap_or(0);
            chain[u] = durations[u] + downstream;
        }
        let critical_path_ns = chain.iter().copied().max().unwrap_or(0);
        let units: Vec<UnitReport> = plan
            .order
            .iter()
            .map(|&u| state.reports[u].take().expect("every scheduled unit reports"))
            .collect();
        let mut queries = QueryCounts::default();
        for unit in &units {
            queries.add(unit.phase_runs);
        }
        let store =
            store_before.zip(ctx.store).map(|(before, store)| store.counters().since(&before));
        let trace_data = sink.finish();
        let metrics = trace_data.as_ref().map(|t| {
            let mut metrics = BuildMetrics::of(t);
            metrics.critical_path_ns = critical_path_ns;
            metrics
        });
        // The build consumes any cancellation it observed: record how it
        // ended, then reset the token so the next build starts live.
        let outcome = match self.cancel.reason() {
            None => BuildOutcome::Completed,
            Some(CancelReason::User) => BuildOutcome::Cancelled,
            Some(CancelReason::BuildDeadline | CancelReason::UnitDeadline) => {
                BuildOutcome::DeadlineExceeded { overran: std::mem::take(&mut state.overran) }
            }
        };
        self.cancel.reset();
        Ok(BuildReport {
            units,
            outcome,
            workers,
            wall_time: started.elapsed(),
            cache: self.cache.stats().since(&cache_before),
            queries,
            store,
            gc,
            trace: trace_data,
            metrics,
            critical_path_ns,
        })
    }

    /// The store keys reachable from the build that just finished: for
    /// every unit with an artifact, its artifact query key and its verify
    /// query key, computed exactly as the workers computed them. This is
    /// the GC's protected set — both `.art` blobs and `.vfy` records for
    /// the current graph survive a sweep, so the next warm build stays
    /// warm.
    fn live_store_keys(&self, plan: &Plan) -> HashSet<Fingerprint> {
        let options = self.options;
        let mut live = HashSet::new();
        'units: for &u in &plan.order {
            let unit = self.graph.unit_at(u);
            let Some(artifact) = self.results.get(&unit.name) else {
                continue;
            };
            let mut dep_fp = Fingerprint::default();
            for &d in &plan.transitive[u] {
                let dep = self.graph.unit_at(d);
                // A dependency without an artifact means this unit cannot
                // have one either; be conservative anyway.
                let Some(dep_artifact) = self.results.get(&dep.name) else {
                    continue 'units;
                };
                dep_fp = query::fold_dep(dep_fp, &dep.name, dep_artifact.interface_fingerprint());
            }
            live.insert(query::artifact_key(unit.source_alpha, dep_fp, &options));
            live.insert(query::verify_key(
                unit.source_alpha,
                dep_fp,
                artifact.output_fingerprint(),
                &options,
            ));
        }
        live
    }

    /// Links the compiled program rooted at `root` into the closed CC-CC
    /// term `let d₁ = e₁ : A₁ in … let dₖ = eₖ : Aₖ in e_root`. The lets
    /// bind `root`'s transitive imports `dᵢ` in schedule order, each to
    /// its compiled term `eᵢ` at its compiled type `Aᵢ`.
    ///
    /// §5.2 links by substitution, γ(e); in CC-CC this telescope is
    /// ζ-equivalent to it, and [`cccc_core::link::link_target`] remains
    /// the substitution the separate-compilation checkers use. The
    /// telescope holds each import once, and evaluation forces a
    /// `let`-bound term at most once, so running the linked program
    /// evaluates each import once instead of once per use.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::NotBuilt`] if `root` or an import has no
    /// artifact from the last build, or [`DriverError::Wire`] on a
    /// corrupt artifact.
    pub fn link(&self, root: &str) -> Result<tgt::Term, DriverError> {
        let _span = trace::span("link");
        let root_index =
            self.graph.index_of(root).ok_or_else(|| DriverError::UnknownUnit(root.to_owned()))?;
        let plan = self.graph.plan()?;
        let mut imports = Vec::with_capacity(plan.transitive[root_index].len());
        for &d in &plan.transitive[root_index] {
            let unit = self.graph.unit_at(d);
            let term = self.target_term(&unit.name)?;
            let ty = self.decode_target(&unit.name, Artifact::target_ty)?;
            imports.push((unit.symbol, ty, term));
        }
        let body = self.target_term(root)?;
        Ok(imports
            .into_iter()
            .rfold(body, |body, (name, ty, term)| tgt::builder::let_sym(name, ty, term, body)))
    }

    /// Links `root` ([`Session::link`]) and runs it, observing the value
    /// at the ground type `Bool`: `Some(b)` for a boolean, `None` for any
    /// other normal form (see [`cccc_core::link::run_target`]).
    ///
    /// # Errors
    ///
    /// See [`Session::link`]; returns [`DriverError::Eval`] when the
    /// evaluation stops before a normal form (it ran out of fuel).
    pub fn observe(&self, root: &str) -> Result<Option<bool>, DriverError> {
        cccc_core::link::run_target(&self.link(root)?)
            .map_err(|error| DriverError::Eval { root: root.to_owned(), error })
    }

    /// The sequential oracle: compiles every unit on the calling thread
    /// with the plain single-program [`Compiler`], in schedule order,
    /// building each unit's typing telescope from the oracle's own
    /// inferred interfaces. No driver machinery — no wire transfer, no
    /// cache, no queries, no workers — so the differential suites can
    /// require the parallel build to agree with it unit by unit.
    ///
    /// # Errors
    ///
    /// Returns the graph errors of [`UnitGraph::plan`], or
    /// [`DriverError::UnitFailed`] on the first unit the pipeline rejects.
    pub fn compile_sequential(&self) -> Result<Vec<(String, Compilation)>, DriverError> {
        let plan = self.graph.plan()?;
        let compiler = Compiler::with_options(self.options);
        let mut interfaces: HashMap<usize, src::Term> = HashMap::new();
        let mut out = Vec::with_capacity(plan.order.len());
        for &u in &plan.order {
            let unit = self.graph.unit_at(u);
            let term =
                src::wire::decode(&unit.source).map_err(|e| DriverError::Wire(e.to_string()))?;
            let mut env = src::Env::new();
            for &d in &plan.transitive[u] {
                let dep = self.graph.unit_at(d);
                env.push_assumption(dep.symbol, interfaces[&d].clone());
            }
            let compilation = compiler.compile(&env, &term).map_err(|e| {
                DriverError::UnitFailed { unit: unit.name.clone(), message: e.to_string() }
            })?;
            interfaces.insert(u, compilation.source_type.clone());
            out.push((unit.name.clone(), compilation));
        }
        Ok(out)
    }
}

/// One worker: claim ready units, answer their queries, publish, repeat.
fn worker_loop(
    worker: usize,
    ctx: &BuildCtx<'_>,
    state: &Mutex<SchedState>,
    ready_signal: &Condvar,
) {
    let graph = ctx.graph;
    let plan = ctx.plan;
    loop {
        // Claim a unit (or exit when everything is settled).
        let (unit_index, deps) = {
            let mut guard = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if guard.remaining == 0 {
                    ready_signal.notify_all();
                    return;
                }
                if let Some(ReadyUnit { index: u, .. }) = guard.ready.pop() {
                    // Every transitive import has settled (the schedule
                    // guarantees it); collect their outcomes — artifacts,
                    // or in keep-going mode possibly poisoned interfaces.
                    let deps: Vec<(usize, Option<Outcome>)> = plan.transitive[u]
                        .iter()
                        .map(|&d| (d, guard.outcomes[d].clone()))
                        .collect();
                    // Start the unit's deadline clock for the watchdog.
                    guard.claimed_at[u] = Some(Instant::now());
                    break (u, deps);
                }
                guard = ready_signal.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };

        let started = Instant::now();
        let unit = graph.unit_at(unit_index);
        trace::set_unit(Some(&unit.name));
        trace::event("sched.claim", &[("priority", plan.priority[unit_index])]);
        let (mut report, mut outcome) = if let Some(reason) = ctx.cancel.reason() {
            // The build is winding down: claimed units are skipped
            // without entering the pipeline, so the frontier drains in
            // one pass and the partial report stays well-formed.
            trace::event("sched.skip", &[]);
            let status = UnitStatus::Skipped(format!("build stopped: {reason}"));
            (UnitReport::new(worker, unit, status, started), None)
        } else {
            // Everything a unit executes runs inside a panic capture: a
            // compiler bug in one unit becomes that unit's Panicked
            // status, never a dead worker or an aborted build.
            let dispatched = panics::capture(|| {
                let _unit_span = trace::span("unit");
                let missing = deps.iter().find(|(_, outcome)| outcome.is_none()).map(|(d, _)| *d);
                match missing {
                    Some(failed_dep) => {
                        trace::event("sched.skip", &[]);
                        let reason = format!(
                            "import `{}` did not produce an artifact",
                            graph.unit_at(failed_dep).name
                        );
                        (UnitReport::new(worker, unit, UnitStatus::Skipped(reason), started), None)
                    }
                    None => {
                        let deps: Vec<(usize, Outcome)> = deps
                            .into_iter()
                            .map(|(d, outcome)| (d, outcome.expect("checked above")))
                            .collect();
                        handle_unit(worker, ctx, unit_index, &deps, started)
                    }
                }
            });
            match dispatched {
                Ok(result) => result,
                Err(message) => {
                    trace::event("sched.panicked", &[]);
                    panicked_outcome(worker, unit, &message, ctx.options, started)
                }
            }
        };
        // A failure while the build is cancelled is indistinguishable
        // from the cancellation itself (checkpoints surface as fuel
        // exhaustion mid-phase): report it as the stop it is, publish
        // nothing, and let genuine results that raced ahead stand.
        if let Some(reason) = ctx.cancel.reason() {
            if matches!(report.status, UnitStatus::Failed(_)) {
                report.status = UnitStatus::Skipped(format!("build stopped: {reason}"));
                report.diagnostics.clear();
                report.phases = None;
                report.phase_runs = PhaseRuns::NONE;
                outcome = None;
            }
        }
        trace::set_unit(None);

        // Publish the outcome and wake anyone waiting on the frontier.
        let mut guard = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        guard.claimed_at[unit_index] = None;
        guard.outcomes[unit_index] = outcome;
        guard.reports[unit_index] = Some(report);
        guard.remaining -= 1;
        // The deterministic mid-build cancellation hook: trip the token
        // the moment the configured number of units have settled.
        if let Some(after) = ctx.cancel_after {
            if guard.outcomes.len() - guard.remaining >= after {
                ctx.cancel.cancel_with(CancelReason::User);
            }
        }
        for &v in &plan.dependents[unit_index] {
            guard.pending[v] -= 1;
            if guard.pending[v] == 0 {
                guard.ready.push(ReadyUnit { priority: plan.priority[v], index: v });
                trace::event_for(&graph.unit_at(v).name, "sched.ready", &[]);
            }
        }
        ready_signal.notify_all();
    }
}

/// The one unit path: the artifact query, then the verified query on
/// whichever artifact it produced. Γ is built from the imports'
/// interfaces — built artifacts, or in keep-going mode poisoned ones. The
/// artifact query answers from a cache tier, or type-checks under the
/// error policy [`CompilerOptions::keep_going`] selects and translates;
/// the verified query answers from a known verdict, or runs check and
/// verify. Only a unit with errors, or with a poisoned import, publishes
/// `Failed` or `Poisoned` — plus, in keep-going mode, the poisoned
/// interface its dependents check against. Returns the report plus the
/// outcome to publish.
fn handle_unit(
    worker: usize,
    ctx: &BuildCtx<'_>,
    unit_index: usize,
    deps: &[(usize, Outcome)],
    started: Instant,
) -> (UnitReport, Option<Outcome>) {
    let unit = ctx.graph.unit_at(unit_index);
    // The chaos harness's injected-panic hook. Ticked here — outside
    // every session lock — so an injected panic exercises the capture
    // path without poisoning shared state.
    if let Some(plan) = ctx.panic_plan.as_deref() {
        plan.tick(&unit.name);
    }
    // The root causes behind any poisoned imports (keep-going mode only).
    let mut upstream: Vec<String> = deps
        .iter()
        .flat_map(|(_, outcome)| match outcome {
            Outcome::Poisoned(poison) => poison.origins.as_slice(),
            Outcome::Built(_) => &[],
        })
        .cloned()
        .collect();
    upstream.sort();
    upstream.dedup();
    if !upstream.is_empty() {
        // Query keys exist only over built imports: a unit checked
        // against a poisoned interface is reported, never built or cached.
        let failure = match typecheck_unit(ctx, unit_index, deps) {
            Ok((_, _, source_type, _)) => UnitFailure {
                message: String::new(),
                diagnostics: Vec::new(),
                interface: Some(source_type),
            },
            Err(failure) => failure,
        };
        let outcome = poisoned_outcome(unit, &failure, &upstream);
        let report = UnitReport {
            phase_runs: PhaseRuns { typecheck: true, ..PhaseRuns::NONE },
            diagnostics: failure.diagnostics,
            ..UnitReport::new(worker, unit, UnitStatus::Poisoned { upstream }, started)
        };
        return (report, outcome);
    }

    let (artifact_key, dep_fp) = {
        let _span = trace::span("fingerprint");
        let dep_fp = dep_fingerprint(ctx, deps);
        (query::artifact_key(unit.source_alpha, dep_fp, &ctx.options), dep_fp)
    };
    // The artifact query's lookup: a settled entry answers the unit;
    // otherwise this worker claims the key and, holding it, tries the
    // store, so α-twins wait here instead of loading or compiling again.
    let (claim, mut hit) = {
        let _span = trace::span("cache.lookup");
        let verdict_known = |artifact: &Artifact| {
            let output = artifact.output_fingerprint();
            let key = query::verify_key(unit.source_alpha, dep_fp, output, &ctx.options);
            let verified = ctx.verified.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            verified.contains(&key)
        };
        match ctx.cache.claim(&unit.name, artifact_key, verdict_known) {
            Lookup::Ready(artifact, tier) => {
                trace::event(hit_event(tier), &[]);
                let report = cached_report(worker, unit, &artifact, tier, artifact_key, started);
                return (report, Some(Outcome::Built(artifact)));
            }
            Lookup::Claimed { claim, prior } => {
                let load = || Some((Arc::new(ctx.store?.load(artifact_key)?), CacheTier::Disk));
                (claim, prior.or_else(load))
            }
        }
    };
    trace::event(hit.as_ref().map_or("cache.miss", |(_, tier)| hit_event(*tier)), &[]);
    let before = cache_snapshot();
    // A second pass happens only when a cached blob turns out to have
    // rotted; it recompiles under the same claim.
    loop {
        // The artifact query: the claim's answer, else typecheck + translate.
        let (artifact, answer) = match hit.take() {
            Some((artifact, tier)) => (artifact, Answer::Cached(tier)),
            None => match compile_unit(ctx, unit_index, deps) {
                Ok(answered) => answered,
                Err(failure) => {
                    return failed_outcome(worker, unit, failure, artifact_key, started)
                }
            },
        };
        // The verified query, on whichever artifact that produced.
        let inputs = match &answer {
            Answer::Cached(_) => None,
            Answer::Compiled { env, term, .. } => Some((env, term)),
        };
        let verdict = match verified_step(ctx, unit_index, deps, &artifact, dep_fp, inputs) {
            Ok(verdict) => verdict,
            Err(NoVerdict::Rotted) => {
                // The hit was a lazily loaded blob whose term sections
                // rotted on disk after its header was verified. The store
                // has already counted the invalid entry and deleted the
                // blob; degrade to a recompile, whose write-through puts a
                // fresh blob back.
                trace::event("cache.rot", &[]);
                continue;
            }
            Err(NoVerdict::Failed(failure)) => {
                // A check or verify failure on a freshly inferred, clean
                // source type still publishes that type in keep-going mode.
                let interface = match answer {
                    Answer::Compiled { source_type, .. } if ctx.options.keep_going => {
                        Some(source_type)
                    }
                    _ => None,
                };
                let failure = UnitFailure { interface, ..failure };
                return failed_outcome(worker, unit, failure, artifact_key, started);
            }
        };

        let tier = match answer {
            Answer::Cached(tier) => tier,
            Answer::Compiled { .. } => {
                if let Some(store) = ctx.store {
                    store.save(artifact_key, &artifact);
                }
                CacheTier::Memory
            }
        };
        // The verdict is recorded: waiting α-twins may take the artifact.
        claim.publish(Arc::clone(&artifact), tier);
        let (compiled, phases) = match answer {
            Answer::Cached(_) if verdict.is_none() => {
                let report = cached_report(worker, unit, &artifact, tier, artifact_key, started);
                return (report, Some(Outcome::Built(artifact)));
            }
            Answer::Cached(_) => (false, PhaseNanos::default()),
            Answer::Compiled { phases, .. } => (true, phases),
        };
        let caches = cache_snapshot().since(&before);
        let (check, verify) = verdict.unwrap_or_default();
        let checked = verdict.is_some();
        let target_words = artifact.target_words();
        trace::event("sched.compiled", &[("target_words", target_words as u64)]);
        let report = UnitReport {
            fingerprint: artifact_key,
            caches: Some(caches),
            target_words,
            phases: Some(PhaseNanos { check, verify, ..phases }),
            phase_runs: PhaseRuns {
                typecheck: compiled,
                translate: compiled,
                check: checked,
                verify: checked,
            },
            ..UnitReport::new(worker, unit, UnitStatus::Compiled, started)
        };
        return (report, Some(Outcome::Built(artifact)));
    }
}

/// The trace event for a unit answered from `tier`.
fn hit_event(tier: CacheTier) -> &'static str {
    match tier {
        CacheTier::Memory => "cache.hit.memory",
        CacheTier::Disk => "cache.hit.disk",
    }
}

/// Where the artifact query's answer came from.
enum Answer {
    /// A cache tier held a fingerprint-matching artifact.
    Cached(CacheTier),
    /// Typecheck and translate ran on this worker. The verified step
    /// reuses the decoded Γ and term; keep-going mode publishes the
    /// source type if check or verify then fails.
    Compiled { env: src::Env, term: src::Term, source_type: src::Term, phases: PhaseNanos },
}

/// Why the verified step produced no verdict.
enum NoVerdict {
    /// A cached artifact's lazily loaded term sections rotted on disk
    /// (the deferred decode failed its per-section checksum). The store
    /// has already invalidated and deleted the blob.
    Rotted,
    /// Check or verify failed, or decoding their inputs did.
    Failed(UnitFailure),
}

impl From<UnitFailure> for NoVerdict {
    fn from(failure: UnitFailure) -> NoVerdict {
        NoVerdict::Failed(failure)
    }
}

/// The verified query, run on every artifact the artifact query
/// produced. On a hit — the session's verdicts, then the store's `.vfy`
/// records — check and verify are cut off (`Ok(None)`), and a lazily
/// loaded artifact decodes no section. A miss — a fresh artifact, or a
/// cached one whose record was lost — runs both phases, records the
/// verdict, and returns their nanoseconds.
/// `inputs` are the unit's decoded Γ and term when the artifact was just
/// compiled; for a cached artifact they are decoded here, on a miss only.
fn verified_step(
    ctx: &BuildCtx<'_>,
    unit_index: usize,
    deps: &[(usize, Outcome)],
    artifact: &Artifact,
    dep_fp: Fingerprint,
    inputs: Option<(&src::Env, &src::Term)>,
) -> Result<Option<(u64, u64)>, NoVerdict> {
    let options = ctx.options;
    let unit = ctx.graph.unit_at(unit_index);
    let output = artifact.output_fingerprint();
    let verify_key = query::verify_key(unit.source_alpha, dep_fp, output, &options);
    let check_key = query::check_key(output, dep_fp, &options);
    if verified_hit(ctx, verify_key, check_key) {
        trace::event("query.cutoff", &[("check", 1), ("verify", 1)]);
        return Ok(None);
    }

    // On a lazy artifact this is the moment the deferred section reads
    // happen, and the moment on-disk rot surfaces.
    let (Ok(target), Ok(target_ty)) = (artifact.target(), artifact.target_ty()) else {
        return Err(NoVerdict::Rotted);
    };
    let decoded;
    let (env, term) = match inputs {
        Some(inputs) => inputs,
        None => {
            decoded = decode_unit_inputs(ctx.graph, unit_index, deps)?;
            (&decoded.0, &decoded.1)
        }
    };
    let target =
        tgt::wire::decode(&target).map_err(|e| UnitFailure::wire(format!("target wire: {e}")))?;
    let compiler = Compiler::with_options(options);
    let (target_env, inferred, check_ns) =
        compiler.phase_check(env, &target).map_err(UnitFailure::phase)?;
    let target_type = tgt::wire::decode(&target_ty)
        .map_err(|e| UnitFailure::wire(format!("target type wire: {e}")))?;
    let verify_ns = compiler
        .phase_verify(env, term, Some(&target_env), &inferred, &target_type)
        .map_err(UnitFailure::phase)?;
    ctx.verified.lock().unwrap_or_else(std::sync::PoisonError::into_inner).insert(verify_key);
    if let Some(store) = ctx.store {
        store.save_verified(verify_key, check_key, tgt::wire::fingerprint_alpha(&inferred));
    }
    Ok(Some((check_ns, verify_ns)))
}

impl UnitReport {
    /// The report of a unit that ran no phase and produced nothing; each
    /// outcome overrides the fields it sets.
    fn new(worker: usize, unit: &Unit, status: UnitStatus, started: Instant) -> UnitReport {
        UnitReport {
            name: unit.name.clone(),
            status,
            cached_from: None,
            duration: started.elapsed(),
            fingerprint: Fingerprint::default(),
            worker,
            caches: None,
            source_words: unit.source.len(),
            target_words: 0,
            phases: None,
            phase_runs: PhaseRuns::NONE,
            diagnostics: Vec::new(),
        }
    }
}

/// A unit answered without running any phase.
fn cached_report(
    worker: usize,
    unit: &Unit,
    artifact: &Artifact,
    tier: CacheTier,
    fingerprint: Fingerprint,
    started: Instant,
) -> UnitReport {
    UnitReport {
        cached_from: Some(tier),
        fingerprint,
        // From the blob's section table on a lazy artifact — reporting
        // the size must not force a section decode.
        target_words: artifact.target_words(),
        ..UnitReport::new(worker, unit, UnitStatus::Cached, started)
    }
}

/// The report/outcome pair for a unit whose imports all built but which
/// failed in some phase (or in wire transcoding).
fn failed_outcome(
    worker: usize,
    unit: &Unit,
    failure: UnitFailure,
    fingerprint: Fingerprint,
    started: Instant,
) -> (UnitReport, Option<Outcome>) {
    let outcome = poisoned_outcome(unit, &failure, &[]);
    let report = UnitReport {
        fingerprint,
        diagnostics: failure.diagnostics,
        ..UnitReport::new(worker, unit, UnitStatus::Failed(failure.message), started)
    };
    (report, outcome)
}

/// What a unit that built nothing publishes for its dependents: in
/// keep-going mode, the interface it recovered, poisoned; otherwise
/// nothing, and dependents are skipped. Failed (and poisoned) results are
/// never cached: caches hold only artifacts a clean compile produced.
fn poisoned_outcome(unit: &Unit, failure: &UnitFailure, upstream: &[String]) -> Option<Outcome> {
    let interface = failure.interface.as_ref()?;
    let own_errors = failure.diagnostics.iter().filter(|d| d.is_error()).count();
    trace::event(
        "sched.poisoned",
        &[("upstream", upstream.len() as u64), ("own_errors", own_errors as u64)],
    );
    // Provenance: the upstream roots, plus this unit itself when it found
    // errors of its own (the sentinel unifies with anything, so those
    // errors are genuinely local, not echoes) or has no poisoned import
    // to blame.
    let mut origins = upstream.to_vec();
    if own_errors > 0 || upstream.is_empty() {
        origins.push(unit.name.clone());
        origins.sort();
        origins.dedup();
    }
    Some(Outcome::Poisoned(Arc::new(PoisonedInterface {
        interface: src::wire::encode_portable(interface),
        diagnostics: failure.diagnostics.clone(),
        origins,
    })))
}

/// The report/outcome pair for a unit whose compile panicked: the caught
/// payload becomes the unit's [`UnitStatus::Panicked`] status and an
/// `E0500` diagnostic. In keep-going mode the unit publishes a sentinel
/// poisoned interface — dependents type-check against it and surface
/// their own diagnostics, exactly as downstream of a type error; in
/// strict mode it publishes nothing and dependents are skipped.
fn panicked_outcome(
    worker: usize,
    unit: &Unit,
    message: &str,
    options: CompilerOptions,
    started: Instant,
) -> (UnitReport, Option<Outcome>) {
    let diagnostic =
        Diagnostic::error(format!("internal compiler panic: {message}")).with_code("E0500");
    let outcome = options.keep_going.then(|| {
        Outcome::Poisoned(Arc::new(PoisonedInterface {
            interface: src::wire::encode_portable(&src::tolerant::error_term()),
            diagnostics: vec![diagnostic.clone()],
            origins: vec![unit.name.clone()],
        }))
    });
    let status = UnitStatus::Panicked { message: message.to_owned() };
    (
        UnitReport {
            diagnostics: vec![diagnostic],
            ..UnitReport::new(worker, unit, status, started)
        },
        outcome,
    )
}

/// A build worker's stack: the Linux main thread's default, so a worker
/// compiles every term [`Compiler::compile_closed`] compiles on the main
/// thread. The recursive phases need stack in proportion to a term's
/// depth, and Rust's 2 MiB default for spawned threads overflows first.
const WORKER_STACK_BYTES: usize = 8 << 20;

/// How often the deadline watchdog polls. Fine-grained enough that unit
/// deadlines in the low milliseconds are honored promptly; coarse enough
/// that the scheduler lock sees negligible extra traffic.
const WATCHDOG_TICK: Duration = Duration::from_micros(200);

/// The deadline watchdog: a sidecar thread (spawned only when a deadline
/// is configured) polling wall clocks against
/// [`CompilerOptions::build_deadline`] and
/// [`CompilerOptions::unit_deadline`]. An overrun trips the session's
/// token — the same cooperative cancellation a [`Session::cancel_handle`]
/// user triggers — and per-unit overruns are recorded by name (sorted,
/// deduplicated) for [`BuildOutcome::DeadlineExceeded`]. Exits when the
/// last unit settles.
fn watchdog_loop(ctx: &BuildCtx<'_>, state: &Mutex<SchedState>, build_started: Instant) {
    loop {
        {
            let mut guard = state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if guard.remaining == 0 {
                return;
            }
            if let Some(limit) = ctx.options.build_deadline {
                if build_started.elapsed() > limit {
                    ctx.cancel.cancel_with(CancelReason::BuildDeadline);
                }
            }
            if let Some(limit) = ctx.options.unit_deadline {
                let now = Instant::now();
                let overrunning: Vec<usize> = guard
                    .claimed_at
                    .iter()
                    .enumerate()
                    .filter_map(|(u, claimed)| match claimed {
                        Some(at) if now.duration_since(*at) > limit => Some(u),
                        _ => None,
                    })
                    .collect();
                for u in overrunning {
                    ctx.cancel.cancel_with(CancelReason::UnitDeadline);
                    let name = ctx.graph.unit_at(u).name.clone();
                    if let Err(position) = guard.overran.binary_search(&name) {
                        guard.overran.insert(position, name);
                    }
                }
            }
        }
        std::thread::sleep(WATCHDOG_TICK);
    }
}

/// The dependency fingerprint a unit's query keys fold in: each
/// transitive dependency contributes its **interface** α-fingerprint,
/// read off the dependency's settled artifact, so a dependent re-keys
/// only when a dependency's *output* changed (early cutoff).
///
/// Every component is **process-stable** — the source by its α-invariant
/// fingerprint ([`Unit::source_alpha`]), import names by their bytes,
/// interfaces by their stored α-fingerprints — so the same graph keys
/// identically across restarts and the persistent store can answer a
/// fresh process's first build. (α-invariance also means an
/// α-variant-only edit is a cache *hit*: the cached artifact is
/// α-equivalent to what a recompile would produce.)
fn dep_fingerprint(ctx: &BuildCtx<'_>, deps: &[(usize, Outcome)]) -> Fingerprint {
    // Keys are only computed when every import built.
    deps.iter().fold(Fingerprint::default(), |acc, (d, outcome)| match outcome {
        Outcome::Built(artifact) => {
            query::fold_dep(acc, &ctx.graph.unit_at(*d).name, artifact.interface_fingerprint())
        }
        Outcome::Poisoned(_) => acc,
    })
}

/// Whether the verified query answers: first the session's verdicts,
/// then the store's verified records (which seed the session's set on a
/// hit, so the disk is consulted at most once per verdict per session).
fn verified_hit(ctx: &BuildCtx<'_>, verify_key: Fingerprint, check_key: Fingerprint) -> bool {
    if ctx.verified.lock().unwrap_or_else(std::sync::PoisonError::into_inner).contains(&verify_key)
    {
        return true;
    }
    let Some(store) = ctx.store else {
        return false;
    };
    match store.load_verified(verify_key) {
        Some((recorded_check, _)) if recorded_check == check_key => {
            ctx.verified
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(verify_key);
            true
        }
        _ => false,
    }
}

/// Encodes a unit's phase outputs as a thread-portable artifact. The
/// output fingerprint — interface ⊕ target ⊕ target type, all
/// α-invariant — is what downstream early cutoff compares.
fn encode_artifact(
    source_type: &src::Term,
    target: &tgt::Term,
    target_type: &tgt::Term,
) -> Arc<Artifact> {
    let (artifact, _) = trace::timed("encode", || {
        let interface_alpha = src::wire::fingerprint_alpha(source_type);
        let output_alpha = interface_alpha
            .combine(tgt::wire::fingerprint_alpha(target))
            .combine(tgt::wire::fingerprint_alpha(target_type));
        Artifact::new(
            src::wire::encode(source_type),
            tgt::wire::encode(target),
            tgt::wire::encode(target_type),
            interface_alpha,
            output_alpha,
        )
    });
    Arc::new(artifact)
}

/// Decodes one unit's source and its imports' interfaces — compiled or
/// poisoned — into the current worker thread's interners.
fn decode_unit_inputs(
    graph: &UnitGraph,
    unit_index: usize,
    deps: &[(usize, Outcome)],
) -> Result<(src::Env, src::Term), UnitFailure> {
    let unit = graph.unit_at(unit_index);
    let (env_and_term, _) = trace::timed("decode", || {
        let term = src::wire::decode(&unit.source).map_err(|e| format!("source wire: {e}"))?;
        let mut env = src::Env::new();
        for (d, outcome) in deps {
            let dep = graph.unit_at(*d);
            // A lazy dependency artifact whose interface section rotted
            // fails the unit here — its own artifact hit already
            // settled, so there is no recompile to fall back to. The
            // fault suites pin this as the one storage edge that
            // surfaces as a unit failure.
            let interface_wire = match outcome {
                Outcome::Built(artifact) => artifact.source_ty(),
                Outcome::Poisoned(poison) => Ok(poison.interface.clone()),
            }
            .map_err(|e| format!("interface wire for `{}`: {e}", dep.name))?;
            let interface = src::wire::decode(&interface_wire)
                .map_err(|e| format!("interface wire for `{}`: {e}", dep.name))?;
            env.push_assumption(dep.symbol, interface);
        }
        Ok::<_, String>((env, term))
    });
    env_and_term.map_err(UnitFailure::wire)
}

/// Why a unit published no artifact.
struct UnitFailure {
    /// The [`UnitStatus::Failed`] message.
    message: String,
    /// Every diagnostic the unit produced, in phase order.
    diagnostics: Vec<Diagnostic>,
    /// Keep-going mode only: the (possibly poisoned) interface the unit
    /// publishes so its dependents are still type-checked.
    interface: Option<src::Term>,
}

impl UnitFailure {
    /// A failed phase: the error is the message, and its coded
    /// diagnostics are the unit's. A keep-going type check that was not
    /// clean also hands over the interface it recovered.
    fn phase(error: CompileError) -> UnitFailure {
        let message = error.to_string();
        let interface = match &error {
            CompileError::Recovered { interface, .. } => Some(interface.clone()),
            _ => None,
        };
        UnitFailure { message, diagnostics: error.into_diagnostics(), interface }
    }

    /// Wire corruption: not a type error, so the diagnostic is uncoded.
    fn wire(message: String) -> UnitFailure {
        UnitFailure {
            diagnostics: vec![Diagnostic::error(message.clone())],
            message,
            interface: None,
        }
    }
}

/// The artifact query's compute path, on the current worker thread:
/// type-check (see [`typecheck_unit`]), translate, and encode the
/// artifact.
fn compile_unit(
    ctx: &BuildCtx<'_>,
    unit_index: usize,
    deps: &[(usize, Outcome)],
) -> Result<(Arc<Artifact>, Answer), UnitFailure> {
    let (env, term, source_type, typecheck) = typecheck_unit(ctx, unit_index, deps)?;
    let (target, target_type, translate) = Compiler::with_options(ctx.options)
        .phase_translate(&env, &term, &source_type)
        .map_err(|e| UnitFailure {
            // A translate failure on a clean source type still publishes
            // that type in keep-going mode.
            interface: ctx.options.keep_going.then(|| source_type.clone()),
            ..UnitFailure::phase(e)
        })?;
    let artifact = encode_artifact(&source_type, &target, &target_type);
    let phases = PhaseNanos { typecheck, translate, ..PhaseNanos::default() };
    Ok((artifact, Answer::Compiled { env, term, source_type, phases }))
}

/// Decodes a unit's inputs into the current worker thread's interners
/// and type-checks it with [`Compiler::phase_typecheck`], under the error
/// policy [`CompilerOptions::keep_going`] selects. Returns Γ, the term,
/// its source type, and the phase's nanoseconds.
fn typecheck_unit(
    ctx: &BuildCtx<'_>,
    unit_index: usize,
    deps: &[(usize, Outcome)],
) -> Result<(src::Env, src::Term, src::Term, u64), UnitFailure> {
    let (env, term) = decode_unit_inputs(ctx.graph, unit_index, deps).map_err(|failure| {
        // Nothing was recovered from corrupt wires: keep-going publishes
        // the pure sentinel.
        UnitFailure { interface: ctx.options.keep_going.then(src::tolerant::error_term), ..failure }
    })?;
    let (source_type, ns) = Compiler::with_options(ctx.options)
        .phase_typecheck(&env, &term)
        .map_err(UnitFailure::phase)?;
    Ok((env, term, source_type, ns))
}
