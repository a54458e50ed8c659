//! A user-facing compiler pipeline: parse → type check → closure convert →
//! re-check → verify type preservation (Theorem 5.6) on the given program
//! (the last two when [`CompilerOptions::typecheck_output`] is on).
//!
//! This is the API the examples and benchmarks drive. It packages the
//! lower-level pieces ([`mod@crate::translate`], [`crate::verify`],
//! [`crate::link`]) behind a [`Compiler`] value with explicit options.
//!
//! Every stage runs on the hash-consed term kernel: the type checkers'
//! conversion memo tables and the CC-CC `[Code]` typing memo are shared
//! across compilations on a thread, so re-verifying a component that
//! contains already-seen code (the separate-compilation workflow, or a
//! batch compile) is answered from cache. [`Compiler::reset_caches`]
//! drops that state when isolation is wanted (e.g. between benchmark
//! phases).

use crate::link::{LinkError, SourceSubstitution};
use crate::translate::{translate, translate_env, TranslateError};
use crate::verify::VerifyError;
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::diag::{diagnostics_to_json, Diagnostic};
use cccc_util::intern::{ConvCacheStats, InternStats};
use cccc_util::trace::{self, BuildTrace, SpanTotal};
use std::fmt;

/// Configuration for the [`Compiler`].
#[derive(Clone, Copy, Debug)]
pub struct CompilerOptions {
    /// Re-type-check the produced CC-CC term (rule-by-rule, in the target
    /// type system). On by default: this is the "typed" in typed closure
    /// conversion.
    pub typecheck_output: bool,
    /// Run the type checkers on the normalization-by-evaluation engine
    /// (the default). When `false`, the substitution-based step engine —
    /// the paper-faithful specification — is used instead; this exists for
    /// differential testing and for the head-to-head benchmarks. The
    /// verify phase's Theorem 5.6 conversion runs on the same engine, so
    /// a step-only compiler runs no NbE code.
    pub use_nbe: bool,
    /// Keep-going mode: the module driver type-checks every unit under the
    /// checker's Collect error policy — collecting *every* diagnostic
    /// instead of stopping at the first error — and degrades failed units
    /// to poisoned interfaces so dependents still report their own
    /// errors. The flag selects the policy on the driver's one unit path;
    /// a clean unit then runs exactly the phases and queries a strict one
    /// does. [`Compiler::compile`] itself stays fail-fast; use
    /// [`Compiler::compile_keep_going`] for the keep-going entry point.
    /// Successful compiles produce bit-identical artifacts either way, so
    /// this flag deliberately does **not** participate in the driver's
    /// input fingerprints.
    pub keep_going: bool,
    /// Wall-clock budget for a whole driver build. When it elapses the
    /// session's watchdog cancels the build cooperatively: in-flight
    /// units stop at their next phase boundary or fuel checkpoint, the
    /// rest of the frontier is skipped, and the partial report comes back
    /// with [`BuildOutcome::DeadlineExceeded`]. Like `keep_going`, deadlines
    /// never change what a successful compile produces, so they do not
    /// participate in input fingerprints.
    pub build_deadline: Option<std::time::Duration>,
    /// Wall-clock budget for any *single* unit's compile. An overrunning
    /// unit is flagged by name and the build is cancelled the same
    /// cooperative way (one runaway unit cannot take the session's cached
    /// progress with it).
    pub unit_deadline: Option<std::time::Duration>,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            typecheck_output: true,
            use_nbe: true,
            keep_going: false,
            build_deadline: None,
            unit_deadline: None,
        }
    }
}

/// How a driver build ended: ran to completion, or was cut short
/// cooperatively. A non-`Completed` outcome still comes with a
/// well-formed partial report — every unit has a status, completed units
/// keep their cached artifacts, and the store's atomic temp+rename
/// writes guarantee nothing is half-persisted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BuildOutcome {
    /// Every unit ran to a terminal status with no cancellation.
    #[default]
    Completed,
    /// Cancelled through the session's `CancelToken`.
    Cancelled,
    /// A [`CompilerOptions::build_deadline`] or
    /// [`CompilerOptions::unit_deadline`] elapsed; `overran` names the
    /// units that were past the per-unit budget when the watchdog fired
    /// (empty for a whole-build deadline).
    DeadlineExceeded {
        /// Units flagged over the per-unit budget, sorted by name.
        overran: Vec<String>,
    },
}

impl BuildOutcome {
    /// Whether the build ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, BuildOutcome::Completed)
    }
}

impl fmt::Display for BuildOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildOutcome::Completed => write!(f, "completed"),
            BuildOutcome::Cancelled => write!(f, "cancelled"),
            BuildOutcome::DeadlineExceeded { overran } if overran.is_empty() => {
                write!(f, "deadline exceeded")
            }
            BuildOutcome::DeadlineExceeded { overran } => {
                write!(f, "deadline exceeded (overran: {})", overran.join(", "))
            }
        }
    }
}

/// Counters for a persistent on-disk artifact store (the driver's
/// restart-surviving cache tier). Defined here, next to the other cache
/// counters; the store that fills them lives in the driver crate, which
/// layers above this one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered by a valid on-disk blob.
    pub disk_hits: u64,
    /// Lookups that found no blob for the key.
    pub disk_misses: u64,
    /// Blobs rejected as unusable — truncated, failed checksum, wrong
    /// format version — and treated as misses (never as errors).
    pub invalid_entries: u64,
    /// Artifacts written through to disk after a compile.
    pub write_throughs: u64,
    /// Artifact write attempts that failed (I/O errors are tolerated and
    /// counted, never surfaced as build failures).
    pub write_errors: u64,
    /// Verified-phase records answered from disk (the driver's
    /// `.vfy` files; see the driver's `store` module). Counted apart
    /// from `disk_hits` so artifact-blob accounting stays exact.
    pub verified_hits: u64,
    /// Verified-phase records written through to disk.
    pub verified_writes: u64,
    /// Bytes read from blob files — headers, section tables, and any
    /// section bodies actually decoded (lazy loads count only what they
    /// touch).
    pub bytes_read: u64,
    /// Bytes written through to blob files.
    pub bytes_written: u64,
    /// Blob sections materialized into wire terms, at first access.
    pub sections_decoded: u64,
    /// Blob sections a load left on disk undecoded. A section
    /// counted skipped at load is re-counted under `sections_decoded`
    /// if a later access materializes it, so the pair measures load-time
    /// laziness rather than partitioning the sections.
    pub sections_skipped: u64,
    /// Blobs evicted by a size-bounded garbage-collection sweep.
    pub gc_evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub gc_evicted_bytes: u64,
    /// Individual retry attempts made against transient I/O faults
    /// (interrupted opens, failed preads, torn writes) before giving up.
    /// Permanent faults — checksum corruption — are never retried.
    pub retries: u64,
    /// Operations that *succeeded* on a retry attempt — each one is a
    /// warm hit (or a persisted artifact) the pre-retry store would have
    /// lost to a miss.
    pub retry_successes: u64,
    /// Blobs in the store (a size at observation time, not a delta).
    pub entries: u64,
    /// Total bytes of those blobs (a size at observation time).
    pub bytes: u64,
}

impl StoreStats {
    /// The activity between `before` and `self`: counters subtract,
    /// sizes keep this (the later) observation's values.
    pub fn since(&self, before: &StoreStats) -> StoreStats {
        StoreStats {
            disk_hits: self.disk_hits - before.disk_hits,
            disk_misses: self.disk_misses - before.disk_misses,
            invalid_entries: self.invalid_entries - before.invalid_entries,
            write_throughs: self.write_throughs - before.write_throughs,
            write_errors: self.write_errors - before.write_errors,
            verified_hits: self.verified_hits - before.verified_hits,
            verified_writes: self.verified_writes - before.verified_writes,
            bytes_read: self.bytes_read - before.bytes_read,
            bytes_written: self.bytes_written - before.bytes_written,
            sections_decoded: self.sections_decoded - before.sections_decoded,
            sections_skipped: self.sections_skipped - before.sections_skipped,
            gc_evictions: self.gc_evictions - before.gc_evictions,
            gc_evicted_bytes: self.gc_evicted_bytes - before.gc_evicted_bytes,
            retries: self.retries - before.retries,
            retry_successes: self.retry_successes - before.retry_successes,
            entries: self.entries,
            bytes: self.bytes,
        }
    }

    /// Total disk lookups (hits + misses + invalid blobs).
    pub fn lookups(&self) -> u64 {
        self.disk_hits + self.disk_misses + self.invalid_entries
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store {}h/{}m/{}inv, {}w (+{} failed), {}vh/{}vw, \
             io {}B r/{}B w, sections {}d/{}s, gc {} (-{}B), \
             retry {}/{} ok, {} blobs / {} bytes",
            self.disk_hits,
            self.disk_misses,
            self.invalid_entries,
            self.write_throughs,
            self.write_errors,
            self.verified_hits,
            self.verified_writes,
            self.bytes_read,
            self.bytes_written,
            self.sections_decoded,
            self.sections_skipped,
            self.gc_evictions,
            self.gc_evicted_bytes,
            self.retries,
            self.retry_successes,
            self.entries,
            self.bytes,
        )
    }
}

/// Wall-clock nanoseconds spent in each pipeline phase of one compile.
///
/// Filled by [`Compiler::compile`] on every run — the phase clocks are
/// read whether or not tracing is active, so the driver's per-unit
/// reports carry a phase breakdown even on untraced builds. The phase
/// names match the span names a traced build records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Parsing the surface syntax (only [`Compiler::compile_text`] pays
    /// this; term-level entry points leave it 0).
    pub parse: u64,
    /// Type checking the CC input ([`src::typecheck::infer_with_engine`]).
    pub typecheck: u64,
    /// The closure-conversion translation of the term and of its type.
    pub translate: u64,
    /// Re-type-checking the produced CC-CC term (0 when
    /// [`CompilerOptions::typecheck_output`] is off).
    pub check: u64,
    /// The type-preservation verification — Theorem 5.6 as one
    /// conversion between the check phase's inferred type and the
    /// translated type (0 when output checking is off).
    pub verify: u64,
}

impl PhaseNanos {
    /// Summed nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.parse + self.typecheck + self.translate + self.check + self.verify
    }

    /// Pointwise sum — aggregating units into per-phase build totals.
    pub fn merged(&self, other: &PhaseNanos) -> PhaseNanos {
        PhaseNanos {
            parse: self.parse + other.parse,
            typecheck: self.typecheck + other.typecheck,
            translate: self.translate + other.translate,
            check: self.check + other.check,
            verify: self.verify + other.verify,
        }
    }

    /// The phases as `(name, nanoseconds)` rows, in pipeline order,
    /// zero phases included.
    pub fn rows(&self) -> [(&'static str, u64); 5] {
        [
            ("parse", self.parse),
            ("typecheck", self.typecheck),
            ("translate", self.translate),
            ("check", self.check),
            ("verify", self.verify),
        ]
    }
}

impl fmt::Display for PhaseNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, ns) in self.rows() {
            if ns == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={:.2}ms", name, ns as f64 / 1e6)?;
            first = false;
        }
        if first {
            write!(f, "(no phases timed)")?;
        }
        Ok(())
    }
}

/// Machine-readable metrics distilled from a [`BuildTrace`] — the third
/// trace consumer next to the Chrome JSON exporter and the `--timings`
/// text report. Rides beside the per-unit [`CacheReport`]s in the
/// driver's `BuildReport` so benches and future service gates consume it
/// without re-walking raw spans.
#[derive(Clone, Debug, Default)]
pub struct BuildMetrics {
    /// Nanoseconds from the sink's epoch to collection (the traced
    /// window, ≥ the makespan).
    pub wall_ns: u64,
    /// Last span end minus first span start.
    pub makespan_ns: u64,
    /// Number of workers that recorded at least one span or event.
    pub workers: usize,
    /// Completed spans collected.
    pub span_count: usize,
    /// Instant events collected.
    pub event_count: usize,
    /// Count and total inclusive nanoseconds per span name, sorted by
    /// name (the per-phase totals of the `--timings` report).
    pub phases: Vec<(String, SpanTotal)>,
    /// Per-event-name occurrence counts, sorted by name (scheduler and
    /// cache-tier activity: `cache.hit.disk`, `sched.claim`, …).
    pub events: Vec<(String, u64)>,
    /// Summed counter payloads keyed `"owner.counter"` (store byte
    /// counts, dynamic-overhead rule counts, …), sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Per-worker busy nanoseconds (top-level spans only), ascending by
    /// worker index.
    pub worker_busy_ns: Vec<(usize, u64)>,
    /// The dependency-graph critical path in nanoseconds, filled by the
    /// driver from its unit graph (0 when unknown): the lower bound the
    /// makespan is compared against.
    pub critical_path_ns: u64,
}

impl BuildMetrics {
    /// Distills `trace` into metrics. [`BuildMetrics::critical_path_ns`]
    /// is left 0 — only the driver knows the unit graph.
    pub fn of(trace: &BuildTrace) -> BuildMetrics {
        BuildMetrics {
            wall_ns: trace.total_ns,
            makespan_ns: trace.makespan_ns(),
            workers: trace.workers().len(),
            span_count: trace.spans.len(),
            event_count: trace.events.len(),
            phases: trace
                .span_totals()
                .into_iter()
                .map(|(name, total)| (name.to_owned(), total))
                .collect(),
            events: trace
                .event_counts()
                .into_iter()
                .map(|(name, count)| (name.to_owned(), count))
                .collect(),
            counters: trace.counter_totals(),
            worker_busy_ns: trace.busy_ns_by_worker(),
            critical_path_ns: 0,
        }
    }

    /// Summed busy nanoseconds across all workers.
    pub fn busy_ns(&self) -> u64 {
        self.worker_busy_ns.iter().map(|(_, ns)| ns).sum()
    }

    /// Overall worker utilization in `[0, 1]`: busy time over
    /// `workers × makespan`.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.makespan_ns == 0 {
            return 0.0;
        }
        self.busy_ns() as f64 / (self.workers as f64 * self.makespan_ns as f64)
    }

    /// Per-worker utilization in `[0, 1]`, ascending by worker index.
    pub fn worker_utilization(&self) -> Vec<(usize, f64)> {
        if self.makespan_ns == 0 {
            return Vec::new();
        }
        self.worker_busy_ns
            .iter()
            .map(|&(w, ns)| (w, ns as f64 / self.makespan_ns as f64))
            .collect()
    }

    /// Actual-over-critical-path makespan ratio (≥ 1 for a correct
    /// schedule; `None` when the critical path is unknown).
    pub fn makespan_gap(&self) -> Option<f64> {
        if self.critical_path_ns == 0 {
            return None;
        }
        Some(self.makespan_ns as f64 / self.critical_path_ns as f64)
    }

    /// Total inclusive nanoseconds recorded for the span name (0 when
    /// absent).
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases.iter().find(|(n, _)| n == name).map_or(0, |(_, t)| t.total_ns)
    }

    /// Occurrences of the event name (0 when absent).
    pub fn event_count(&self, name: &str) -> u64 {
        self.events.iter().find(|(n, _)| n == name).map_or(0, |(_, c)| *c)
    }
}

impl fmt::Display for BuildMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "makespan {:.2}ms, {} workers at {:.0}% utilization, {} spans / {} events",
            self.makespan_ns as f64 / 1e6,
            self.workers,
            self.utilization() * 100.0,
            self.span_count,
            self.event_count,
        )
    }
}

/// The state of every thread-local cache the pipeline relies on: both
/// languages' term interners and conversion memo tables.
///
/// [`cache_snapshot`] takes one; [`CacheReport::since`] subtracts an
/// earlier one into the activity in between (counters become deltas,
/// table sizes stay the later observation's). This is how the interner
/// and memo counters of the per-crate free functions
/// ([`src::ast::intern_stats`], [`src::equiv::conv_cache_stats`], and
/// their `tgt` twins) surface in the driver's per-unit diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheReport {
    /// CC interner counters (hit/miss/prune).
    pub source_intern: InternStats,
    /// CC-CC interner counters (hit/miss/prune).
    pub target_intern: InternStats,
    /// CC conversion-memo counters (identity/memo-hit/miss/clear).
    pub source_conv: ConvCacheStats,
    /// CC-CC conversion-memo counters (identity/memo-hit/miss/clear).
    pub target_conv: ConvCacheStats,
    /// Entries in the CC interner table.
    pub source_intern_table: usize,
    /// Entries in the CC-CC interner table.
    pub target_intern_table: usize,
    /// Entries in the CC conversion memo.
    pub source_conv_table: usize,
    /// Entries in the CC-CC conversion memo.
    pub target_conv_table: usize,
}

/// Snapshots the current thread's interner and conversion-memo state.
pub fn cache_snapshot() -> CacheReport {
    CacheReport {
        source_intern: src::ast::intern_stats(),
        target_intern: tgt::ast::intern_stats(),
        source_conv: src::equiv::conv_cache_stats(),
        target_conv: tgt::equiv::conv_cache_stats(),
        source_intern_table: src::ast::intern_table_len(),
        target_intern_table: tgt::ast::intern_table_len(),
        source_conv_table: src::equiv::conv_cache_len(),
        target_conv_table: tgt::equiv::conv_cache_len(),
    }
}

impl CacheReport {
    /// The activity between the `earlier` snapshot and this one:
    /// counters subtract, table sizes keep this observation's values.
    pub fn since(&self, earlier: &CacheReport) -> CacheReport {
        CacheReport {
            source_intern: self.source_intern.since(&earlier.source_intern),
            target_intern: self.target_intern.since(&earlier.target_intern),
            source_conv: self.source_conv.since(&earlier.source_conv),
            target_conv: self.target_conv.since(&earlier.target_conv),
            ..*self
        }
    }

    /// Total interning requests across both languages.
    pub fn intern_requests(&self) -> u64 {
        self.source_intern.hits
            + self.source_intern.misses
            + self.target_intern.hits
            + self.target_intern.misses
    }

    /// Total conversion queries answered without running the decision
    /// procedure (identity + memo hits, both languages).
    pub fn conv_fast_path_hits(&self) -> u64 {
        self.source_conv.identity_hits
            + self.source_conv.memo_hits
            + self.target_conv.identity_hits
            + self.target_conv.memo_hits
    }
}

impl fmt::Display for CacheReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "intern cc {}h/{}m cccc {}h/{}m ({} + {} entries, {} prunes); \
             conv cc {}i/{}h/{}m cccc {}i/{}h/{}m ({} + {} entries)",
            self.source_intern.hits,
            self.source_intern.misses,
            self.target_intern.hits,
            self.target_intern.misses,
            self.source_intern_table,
            self.target_intern_table,
            self.source_intern.prunes + self.target_intern.prunes,
            self.source_conv.identity_hits,
            self.source_conv.memo_hits,
            self.source_conv.memo_misses,
            self.target_conv.identity_hits,
            self.target_conv.memo_hits,
            self.target_conv.memo_misses,
            self.source_conv_table,
            self.target_conv_table,
        )
    }
}

/// Errors produced by the compiler pipeline.
#[derive(Debug)]
pub enum CompileError {
    /// The program text did not parse.
    Parse(src::parse::ParseError),
    /// The source program is ill-typed.
    SourceType(src::TypeError),
    /// The closure-conversion translation failed.
    Translate(TranslateError),
    /// The produced CC-CC program is ill-typed (this would contradict type
    /// preservation and indicates a compiler bug).
    TargetType(tgt::TypeError),
    /// Type preservation verification failed.
    Verify(VerifyError),
    /// Linking failed.
    Link(LinkError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::SourceType(e) => write!(f, "source type error: {e}"),
            CompileError::Translate(e) => write!(f, "{e}"),
            CompileError::TargetType(e) => write!(f, "target type error: {e}"),
            CompileError::Verify(e) => write!(f, "{e}"),
            CompileError::Link(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<src::parse::ParseError> for CompileError {
    fn from(e: src::parse::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<src::TypeError> for CompileError {
    fn from(e: src::TypeError) -> Self {
        CompileError::SourceType(e)
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> Self {
        CompileError::Translate(e)
    }
}

impl From<tgt::TypeError> for CompileError {
    fn from(e: tgt::TypeError) -> Self {
        CompileError::TargetType(e)
    }
}

impl From<VerifyError> for CompileError {
    fn from(e: VerifyError) -> Self {
        CompileError::Verify(e)
    }
}

impl From<LinkError> for CompileError {
    fn from(e: LinkError) -> Self {
        CompileError::Link(e)
    }
}

/// Result type for the compiler pipeline.
pub type Result<T> = std::result::Result<T, CompileError>;

/// The output of a successful compilation.
#[derive(Clone, Debug)]
pub struct Compilation {
    /// The source term that was compiled.
    pub source: src::Term,
    /// Its inferred CC type.
    pub source_type: src::Term,
    /// The closure-converted CC-CC term.
    pub target: tgt::Term,
    /// The translation of the source type (the target term checks at this
    /// type).
    pub target_type: tgt::Term,
    /// Wall-clock nanoseconds per pipeline phase, measured on every
    /// compile (tracing enabled or not).
    pub phases: PhaseNanos,
    /// Diagnostics aggregated across phases. Empty for a fail-fast
    /// [`Compiler::compile`] (which reports through [`CompileError`]);
    /// populated by the keep-going entry points.
    pub diagnostics: Vec<Diagnostic>,
}

impl Compilation {
    /// AST size of the source term.
    pub fn source_size(&self) -> usize {
        self.source.size()
    }

    /// AST size of the compiled term.
    pub fn target_size(&self) -> usize {
        self.target.size()
    }

    /// Code-size blow-up factor introduced by closure conversion.
    pub fn expansion_factor(&self) -> f64 {
        self.target_size() as f64 / self.source_size() as f64
    }

    /// Number of closures in the output (one per source λ).
    pub fn closure_count(&self) -> usize {
        self.target.closure_count()
    }

    /// The aggregated diagnostics as a machine-readable JSON array.
    pub fn diagnostics_json(&self) -> String {
        diagnostics_to_json(&self.diagnostics)
    }
}

/// The result of a keep-going compile ([`Compiler::compile_keep_going`]):
/// always a declared/partial interface and the full diagnostic set, plus
/// the complete [`Compilation`] when the program was actually clean.
#[derive(Clone, Debug)]
pub struct FrontendOutcome {
    /// The inferred source type — the unit's interface. Mentions the
    /// `<error>` sentinel wherever recovery happened, making the interface
    /// *poisoned*; dependents can still check against it.
    pub interface: src::Term,
    /// Every diagnostic, in phase order: parse, then type checking, then
    /// any backend failure folded in.
    pub diagnostics: Vec<Diagnostic>,
    /// The full compilation — present only when no error-severity
    /// diagnostic was produced and the environment was clean.
    pub compilation: Option<Compilation>,
}

impl FrontendOutcome {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }

    /// True when the program compiled cleanly end to end.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.compilation.is_some()
    }

    /// True when the interface mentions the error sentinel.
    pub fn interface_is_poisoned(&self) -> bool {
        src::tolerant::is_poisoned(&self.interface)
    }

    /// The diagnostics as a machine-readable JSON array.
    pub fn diagnostics_json(&self) -> String {
        diagnostics_to_json(&self.diagnostics)
    }
}

/// Folds a strict-pipeline error into a coded diagnostic. Parse and type
/// errors carry their per-variant codes ([`src::TypeError::code`],
/// [`tgt::TypeError::code`]); the later phases get phase-level codes
/// (`E0200` translate, `E0300` verify, `E0400` link).
pub fn diagnostic_of_compile_error(error: &CompileError) -> Diagnostic {
    match error {
        CompileError::Parse(e) => e.to_diagnostic(),
        CompileError::SourceType(e) => Diagnostic::error(e.to_string()).with_code(e.code()),
        CompileError::Translate(e) => Diagnostic::error(e.to_string()).with_code("E0200"),
        CompileError::TargetType(e) => Diagnostic::error(e.to_string()).with_code(e.code()),
        CompileError::Verify(e) => Diagnostic::error(e.to_string()).with_code("E0300"),
        CompileError::Link(e) => Diagnostic::error(e.to_string()).with_code("E0400"),
    }
}

/// The closure-conversion compiler.
#[derive(Clone, Copy, Debug, Default)]
pub struct Compiler {
    options: CompilerOptions,
}

impl Compiler {
    /// A compiler with the default options (full checking).
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// A compiler with explicit options.
    pub fn with_options(options: CompilerOptions) -> Compiler {
        Compiler { options }
    }

    /// The options in effect.
    pub fn options(&self) -> CompilerOptions {
        self.options
    }

    /// Clears the thread's memoization state: both languages' conversion
    /// memo tables (and their counters) and the CC-CC `[Code]` typing
    /// memo. Compilation results are unaffected — only the caches that
    /// make repeated checking of identical subterms O(1) are dropped.
    pub fn reset_caches() {
        src::equiv::reset_conv_cache();
        tgt::equiv::reset_conv_cache();
        tgt::typecheck::reset_code_memo();
    }

    /// Runs the `typecheck` phase alone: infers the CC type of `term`
    /// under `env` (the unit's interface), returning the type and the
    /// phase's wall-clock nanoseconds. Records the same `typecheck` span
    /// a full [`Compiler::compile`] would, so traced callers see one
    /// span per phase regardless of which entry point ran it.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError::SourceType`] on an ill-typed input.
    pub fn phase_typecheck(&self, env: &src::Env, term: &src::Term) -> Result<(src::Term, u64)> {
        let engine =
            if self.options.use_nbe { src::equiv::Engine::Nbe } else { src::equiv::Engine::Step };
        let (ty, ns) =
            trace::timed("typecheck", || src::typecheck::infer_with_engine(env, term, engine));
        Ok((ty?, ns))
    }

    /// [`Compiler::phase_typecheck`] under the checker's Collect error
    /// policy: every type error becomes a coded diagnostic and checking
    /// recovers with the `<error>` sentinel (see
    /// [`cccc_source::typecheck`]). Records the same `typecheck` span.
    ///
    /// # Errors
    ///
    /// Unless the input is clean — no error diagnostic, and neither
    /// `term` nor `env` mentions the sentinel — returns the recovered,
    /// possibly poisoned interface with every diagnostic instead of the
    /// type.
    pub fn phase_typecheck_keep_going(
        &self,
        env: &src::Env,
        term: &src::Term,
    ) -> std::result::Result<(src::Term, u64), (src::Term, Vec<Diagnostic>)> {
        let engine =
            if self.options.use_nbe { src::equiv::Engine::Nbe } else { src::equiv::Engine::Step };
        let (outcome, ns) = trace::timed("typecheck", || {
            src::tolerant::infer_tolerant_with_engine(env, term, engine)
        });
        if outcome.is_clean()
            && !src::tolerant::is_poisoned(term)
            && !src::tolerant::env_is_poisoned(env)
        {
            Ok((outcome.ty, ns))
        } else {
            Err((outcome.ty, outcome.diagnostics))
        }
    }

    /// Runs the `translate` phase alone: closure-converts the term and
    /// its (already inferred) type, returning `(target, target_type)`
    /// and the phase's nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError::Translate`] if the translation fails.
    pub fn phase_translate(
        &self,
        env: &src::Env,
        term: &src::Term,
        source_type: &src::Term,
    ) -> Result<(tgt::Term, tgt::Term, u64)> {
        let (translated, ns) = trace::timed("translate", || {
            let target = translate(env, term)?;
            let target_type = translate(env, source_type)?;
            Ok::<_, TranslateError>((target, target_type))
        });
        let (target, target_type) = translated?;
        Ok((target, target_type, ns))
    }

    /// Runs the `check` phase alone: translates the environment and
    /// re-type-checks the produced CC-CC term in it, returning the
    /// translated environment, the inferred target type, and the phase's
    /// nanoseconds. Callers gate on
    /// [`CompilerOptions::typecheck_output`] themselves — this entry
    /// point always checks.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if environment translation or target
    /// type checking fails (either would contradict type preservation).
    pub fn phase_check(
        &self,
        env: &src::Env,
        target: &tgt::Term,
    ) -> Result<(tgt::Env, tgt::Term, u64)> {
        let engine =
            if self.options.use_nbe { tgt::equiv::Engine::Nbe } else { tgt::equiv::Engine::Step };
        let (checked, ns) = trace::timed("check", || {
            let target_env = translate_env(env)?;
            let inferred = tgt::typecheck::infer_with_engine(&target_env, target, engine)?;
            Ok::<_, CompileError>((target_env, inferred))
        });
        let (target_env, inferred) = checked?;
        Ok((target_env, inferred, ns))
    }

    /// Runs the `verify` phase alone: Theorem 5.6 (Γ⁺ ⊢ e⁺ : A⁺) on the
    /// unit, as one conversion. [`Compiler::phase_check`] already
    /// established Γ⁺ ⊢ e⁺ : `inferred`; this phase checks `inferred` ≡
    /// `target_type` (the translation A⁺) under Γ⁺, on the engine
    /// [`CompilerOptions::use_nbe`] selects. `target_env` is check's Γ⁺
    /// when the caller just ran [`Compiler::phase_check`], as the driver's
    /// session always does; `None` serves callers outside the session
    /// that kept the inferred type but not Γ⁺, and re-translates the
    /// environment inside the phase. The term itself is not needed
    /// and `_term` is ignored; [`crate::verify::check_type_preservation`]
    /// stays the standalone checker that re-derives every premise from
    /// the source. Returns the phase's nanoseconds.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Verify`] with
    /// [`VerifyError::NotEquivalent`] in context `type preservation
    /// (Theorem 5.6)` when the two types are not convertible, or a
    /// [`CompileError::Translate`] if re-translating the environment
    /// fails.
    pub fn phase_verify(
        &self,
        env: &src::Env,
        _term: &src::Term,
        target_env: Option<&tgt::Env>,
        inferred: &tgt::Term,
        target_type: &tgt::Term,
    ) -> Result<u64> {
        let engine =
            if self.options.use_nbe { tgt::equiv::Engine::Nbe } else { tgt::equiv::Engine::Step };
        let (verified, ns) = trace::timed("verify", || {
            let owned_env;
            let target_env = match target_env {
                Some(existing) => existing,
                None => {
                    owned_env = translate_env(env)?;
                    &owned_env
                }
            };
            let mut fuel = cccc_util::fuel::Fuel::default();
            let agrees =
                tgt::equiv::equiv_with_engine(target_env, inferred, target_type, &mut fuel, engine)
                    .unwrap_or(false);
            if !agrees {
                return Err(CompileError::Verify(VerifyError::NotEquivalent {
                    context: "type preservation (Theorem 5.6)".to_owned(),
                    left: inferred.to_string(),
                    right: target_type.to_string(),
                }));
            }
            Ok(())
        });
        verified?;
        Ok(ns)
    }

    /// Compiles an open component `Γ ⊢ e : A` to CC-CC — the per-phase
    /// entry points ([`Compiler::phase_typecheck`] →
    /// [`Compiler::phase_translate`] → [`Compiler::phase_check`] →
    /// [`Compiler::phase_verify`]) composed in order.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if any stage fails.
    pub fn compile(&self, env: &src::Env, term: &src::Term) -> Result<Compilation> {
        let (source_type, typecheck_ns) = self.phase_typecheck(env, term)?;
        self.compile_typed(env, term, source_type, typecheck_ns)
    }

    /// The backend both [`Compiler::compile`] and
    /// [`Compiler::compile_keep_going`] hand a clean source type to:
    /// translate, then — when output checking is on — check and verify.
    fn compile_typed(
        &self,
        env: &src::Env,
        term: &src::Term,
        source_type: src::Term,
        typecheck_ns: u64,
    ) -> Result<Compilation> {
        let mut phases = PhaseNanos { typecheck: typecheck_ns, ..PhaseNanos::default() };
        let (target, target_type, translate_ns) = self.phase_translate(env, term, &source_type)?;
        phases.translate = translate_ns;

        if self.options.typecheck_output {
            let (target_env, inferred, check_ns) = self.phase_check(env, &target)?;
            phases.check = check_ns;
            phases.verify =
                self.phase_verify(env, term, Some(&target_env), &inferred, &target_type)?;
        }

        Ok(Compilation {
            source: term.clone(),
            source_type,
            target,
            target_type,
            phases,
            diagnostics: Vec::new(),
        })
    }

    /// Compiles a closed program.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn compile_closed(&self, term: &src::Term) -> Result<Compilation> {
        self.compile(&src::Env::new(), term)
    }

    /// Parses and compiles a closed program written in the CC surface
    /// syntax.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`]; additionally returns parse errors.
    pub fn compile_text(&self, source_text: &str) -> Result<Compilation> {
        let (term, parse_ns) = trace::timed("parse", || src::parse::parse_term(source_text));
        let term = term?;
        let mut compilation = self.compile_closed(&term)?;
        compilation.phases.parse = parse_ns;
        Ok(compilation)
    }

    /// Compiles an open component with keep-going semantics: *every*
    /// diagnostic is collected instead of the first error aborting the
    /// pipeline.
    ///
    /// The source program is checked once, under the checker's Collect
    /// error policy ([`Compiler::phase_typecheck_keep_going`]). When it is
    /// clean — and the ambient environment is not poisoned by an upstream
    /// failure — its type goes through the same translate → check →
    /// verify backend [`Compiler::compile`] uses, and the outcome carries
    /// a [`Compilation`]; otherwise the outcome is frontend-only: a
    /// (possibly poisoned) interface plus the diagnostics, and no
    /// translation is attempted. A backend failure on clean input (e.g.
    /// fuel exhaustion, or a translator invariant violation) is folded
    /// into the diagnostics rather than escaping as an error.
    pub fn compile_keep_going(&self, env: &src::Env, term: &src::Term) -> FrontendOutcome {
        let (source_type, typecheck_ns) = match self.phase_typecheck_keep_going(env, term) {
            Ok(checked) => checked,
            Err((interface, diagnostics)) => {
                return FrontendOutcome { interface, diagnostics, compilation: None }
            }
        };
        let interface = source_type.clone();
        let (diagnostics, compilation) =
            match self.compile_typed(env, term, source_type, typecheck_ns) {
                Ok(compilation) => (Vec::new(), Some(compilation)),
                Err(error) => (vec![diagnostic_of_compile_error(&error)], None),
            };
        FrontendOutcome { interface, diagnostics, compilation }
    }

    /// Parses and compiles a closed program with keep-going semantics:
    /// tolerant parsing with synchronizing recovery, then
    /// [`Compiler::compile_keep_going`] on the recovered term (which may
    /// contain `<error>` holes).
    pub fn compile_text_keep_going(&self, source_text: &str) -> FrontendOutcome {
        let ((term, parse_errors), parse_ns) =
            trace::timed("parse", || src::parse::parse_term_tolerant(source_text));
        let mut diagnostics: Vec<Diagnostic> =
            parse_errors.iter().map(src::parse::ParseError::to_diagnostic).collect();
        let mut outcome = self.compile_keep_going(&src::Env::new(), &term);
        diagnostics.append(&mut outcome.diagnostics);
        outcome.diagnostics = diagnostics;
        if let Some(compilation) = outcome.compilation.as_mut() {
            compilation.phases.parse = parse_ns;
            compilation.diagnostics = outcome.diagnostics.clone();
        }
        outcome
    }

    /// Compiles a component and a closing substitution separately, links the
    /// results in CC-CC, and returns the linked target program (the
    /// "compile separately, link later" workflow of §5.2).
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`]; additionally returns linking errors.
    pub fn compile_and_link(
        &self,
        env: &src::Env,
        term: &src::Term,
        substitution: &SourceSubstitution,
    ) -> Result<tgt::Term> {
        crate::link::check_source_substitution(env, substitution)?;
        let compilation = self.compile(env, term)?;
        let compiled_substitution =
            crate::link::translate_substitution(env, substitution).map_err(CompileError::from)?;
        Ok(crate::link::link_target(&compilation.target, &compiled_substitution))
    }

    /// Compiles a closed ground program and runs both the source and the
    /// compiled versions, returning `(source_value, target_value)` as
    /// booleans.
    ///
    /// # Errors
    ///
    /// Returns an error if compilation fails or either side fails to produce
    /// a boolean.
    pub fn compile_and_run(&self, term: &src::Term) -> Result<(bool, bool)> {
        let compilation = self.compile_closed(term)?;
        let source_value = crate::link::observe_source(term)
            .ok_or_else(|| CompileError::Verify(VerifyError::NotGround(term.to_string())))?;
        let target_value = crate::link::observe_target(&compilation.target).ok_or_else(|| {
            CompileError::Verify(VerifyError::NotGround(compilation.target.to_string()))
        })?;
        Ok((source_value, target_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder as s;
    use cccc_source::prelude;
    use cccc_util::symbol::Symbol;

    #[test]
    fn default_compiler_compiles_the_corpus() {
        let compiler = Compiler::new();
        for entry in prelude::corpus() {
            let compilation = compiler
                .compile_closed(&entry.term)
                .unwrap_or_else(|e| panic!("`{}` failed to compile: {e}", entry.name));
            assert_eq!(compilation.closure_count(), entry.term.lambda_count());
            assert!(compilation.expansion_factor() >= 1.0);
        }
    }

    #[test]
    fn compile_text_round_trips_through_the_parser() {
        let compiler = Compiler::new();
        let compilation = compiler.compile_text("\\(A : *). \\(x : A). x").unwrap();
        assert_eq!(compilation.closure_count(), 2);
        assert!(compiler.compile_text("\\(A : *").is_err());
        assert!(compiler.compile_text("fst true").is_err());
    }

    #[test]
    fn compile_and_run_agree_on_ground_programs() {
        let compiler = Compiler::new();
        for (entry, expected) in prelude::ground_corpus() {
            let (source_value, target_value) = compiler.compile_and_run(&entry.term).unwrap();
            assert_eq!(source_value, expected, "`{}`", entry.name);
            assert_eq!(target_value, expected, "`{}`", entry.name);
        }
    }

    #[test]
    fn compile_and_link_produces_runnable_targets() {
        let compiler = Compiler::new();
        let env = src::Env::new()
            .with_assumption(Symbol::intern("id"), prelude::poly_id_ty())
            .with_assumption(Symbol::intern("flag"), s::bool_ty());
        let component = s::app(s::app(s::var("id"), s::bool_ty()), s::var("flag"));
        let gamma =
            vec![(Symbol::intern("id"), prelude::poly_id()), (Symbol::intern("flag"), s::ff())];
        let linked = compiler.compile_and_link(&env, &component, &gamma).unwrap();
        assert_eq!(crate::link::observe_target(&linked), Some(false));
    }

    #[test]
    fn options_can_disable_verification() {
        let options = CompilerOptions { typecheck_output: false, ..CompilerOptions::default() };
        let compiler = Compiler::with_options(options);
        assert!(!compiler.options().typecheck_output);
        compiler.compile_closed(&prelude::poly_id()).unwrap();
    }

    #[test]
    fn errors_are_reported_per_stage() {
        let compiler = Compiler::new();
        assert!(matches!(compiler.compile_text("(((").unwrap_err(), CompileError::Parse(_)));
        assert!(matches!(
            compiler.compile_closed(&s::app(s::tt(), s::ff())).unwrap_err(),
            CompileError::SourceType(_)
        ));
        let env = src::Env::new().with_assumption(Symbol::intern("x"), s::bool_ty());
        assert!(matches!(
            compiler.compile_and_link(&env, &s::var("x"), &Vec::new()).unwrap_err(),
            CompileError::Link(_)
        ));
    }

    #[test]
    fn phase_verify_rejects_an_inferred_type_that_is_not_the_translation() {
        // The verify phase must compare what check inferred against A⁺:
        // hand it the translation of `Bool` as the inferred type of
        // `poly_id` against the translation of `Π A : ⋆. A → A`.
        let env = src::Env::new();
        let inferred = translate(&env, &s::bool_ty()).unwrap();
        let target_type = translate(&env, &prelude::poly_id_ty()).unwrap();
        let target_env = translate_env(&env).unwrap();
        for use_nbe in [true, false] {
            let compiler =
                Compiler::with_options(CompilerOptions { use_nbe, ..CompilerOptions::default() });
            for checked_env in [Some(&target_env), None] {
                let error = compiler
                    .phase_verify(&env, &prelude::poly_id(), checked_env, &inferred, &target_type)
                    .expect_err("an inferred type that is not A⁺ must be rejected");
                let CompileError::Verify(VerifyError::NotEquivalent { context, .. }) = &error
                else {
                    panic!("use_nbe={use_nbe}: expected NotEquivalent, got {error}");
                };
                assert_eq!(context, "type preservation (Theorem 5.6)");
                assert_eq!(diagnostic_of_compile_error(&error).code.as_deref(), Some("E0300"));
            }
        }
    }

    #[test]
    fn phase_verify_converts_under_the_translated_environment() {
        // With `B := Bool` in Γ, ⟦(λ X : ⋆. X) B⟧ ≡ ⟦Bool⟧ needs a closure
        // β-step and a δ-step through B⁺'s definition in Γ⁺.
        let env = src::Env::new().with_definition(Symbol::intern("B"), s::bool_ty(), s::star());
        let redex = s::app(s::lam("X", s::star(), s::var("X")), s::var("B"));
        let inferred = translate(&env, &redex).unwrap();
        let target_type = translate(&env, &s::bool_ty()).unwrap();
        let target_env = translate_env(&env).unwrap();
        for use_nbe in [true, false] {
            let compiler =
                Compiler::with_options(CompilerOptions { use_nbe, ..CompilerOptions::default() });
            for checked_env in [Some(&target_env), None] {
                compiler
                    .phase_verify(&env, &redex, checked_env, &inferred, &target_type)
                    .unwrap_or_else(|e| panic!("use_nbe={use_nbe}: convertible types: {e}"));
            }
            // The conversion runs under the Γ⁺ it is handed: without B⁺'s
            // definition the two types are not convertible.
            let error = compiler
                .phase_verify(&env, &redex, Some(&tgt::Env::new()), &inferred, &target_type)
                .expect_err("B⁺ is opaque without its definition");
            assert!(matches!(error, CompileError::Verify(VerifyError::NotEquivalent { .. })));
        }
    }

    #[test]
    fn cache_snapshots_subtract_into_reports() {
        let before = cache_snapshot();
        let _ = Compiler::new().compile_closed(&prelude::poly_compose()).unwrap();
        let after = cache_snapshot();
        let report = after.since(&before);
        // Compiling interned fresh nodes in both languages …
        assert!(report.source_intern.misses > 0);
        assert!(report.target_intern.misses > 0);
        assert!(report.intern_requests() > 0);
        // … and the tables are non-empty afterwards.
        assert!(report.source_intern_table > 0);
        assert!(report.target_intern_table > 0);
        let rendered = report.to_string();
        assert!(rendered.contains("intern"));
        assert!(rendered.contains("conv"));
        // Snapshotting is observation only: two consecutive snapshots
        // with no work in between must subtract to all-zero deltas.
        let idle = cache_snapshot().since(&after);
        assert_eq!(idle.intern_requests(), 0);
        assert_eq!(idle.conv_fast_path_hits(), 0);
        assert_eq!(idle.source_conv.memo_misses, 0);
        assert_eq!(idle.target_conv.memo_misses, 0);
    }

    #[test]
    fn store_stats_subtract_merge_and_render() {
        let before = StoreStats {
            disk_hits: 2,
            disk_misses: 3,
            invalid_entries: 1,
            write_throughs: 4,
            write_errors: 0,
            verified_hits: 1,
            verified_writes: 2,
            bytes_read: 100,
            bytes_written: 400,
            sections_decoded: 2,
            sections_skipped: 4,
            gc_evictions: 0,
            gc_evicted_bytes: 0,
            retries: 1,
            retry_successes: 0,
            entries: 10,
            bytes: 800,
        };
        let after = StoreStats {
            disk_hits: 5,
            disk_misses: 4,
            invalid_entries: 1,
            write_throughs: 6,
            write_errors: 1,
            verified_hits: 3,
            verified_writes: 2,
            bytes_read: 250,
            bytes_written: 600,
            sections_decoded: 5,
            sections_skipped: 10,
            gc_evictions: 2,
            gc_evicted_bytes: 160,
            retries: 4,
            retry_successes: 2,
            entries: 12,
            bytes: 900,
        };
        let delta = after.since(&before);
        assert_eq!(delta.disk_hits, 3);
        assert_eq!(delta.disk_misses, 1);
        assert_eq!(delta.invalid_entries, 0);
        assert_eq!(delta.write_throughs, 2);
        assert_eq!(delta.verified_hits, 2);
        assert_eq!(delta.verified_writes, 0);
        assert_eq!(delta.bytes_read, 150);
        assert_eq!(delta.bytes_written, 200);
        assert_eq!(delta.sections_decoded, 3);
        assert_eq!(delta.sections_skipped, 6);
        assert_eq!(delta.gc_evictions, 2);
        assert_eq!(delta.gc_evicted_bytes, 160);
        assert_eq!(delta.retries, 3);
        assert_eq!(delta.retry_successes, 2);
        assert_eq!(delta.lookups(), 4);
        assert_eq!(delta.entries, 12, "sizes keep the later observation");
        assert!(delta.to_string().contains("store"));
        assert!(delta.to_string().contains("io 150B r/200B w"));
        assert!(delta.to_string().contains("sections 3d/6s"));
        assert!(delta.to_string().contains("gc 2 (-160B)"));
        assert!(delta.to_string().contains("retry 3/2 ok"));
    }

    #[test]
    fn phase_durations_are_measured_on_every_compile() {
        let compilation = Compiler::new().compile_closed(&prelude::poly_compose()).unwrap();
        let phases = compilation.phases;
        assert!(phases.typecheck > 0);
        assert!(phases.translate > 0);
        assert!(phases.check > 0);
        assert!(phases.verify > 0);
        assert_eq!(phases.parse, 0, "term-level entry points skip the parser");
        assert_eq!(
            phases.total_ns(),
            phases.parse + phases.typecheck + phases.translate + phases.check + phases.verify
        );
        let rendered = phases.to_string();
        assert!(rendered.contains("typecheck="));
        assert!(!rendered.contains("parse="), "zero phases are omitted: {rendered}");

        // compile_text additionally times the parser.
        let parsed = Compiler::new().compile_text("\\(A : *). \\(x : A). x").unwrap();
        assert!(parsed.phases.parse > 0);

        // Disabling output checking zeroes the downstream phases.
        let unchecked = Compiler::with_options(CompilerOptions {
            typecheck_output: false,
            ..Default::default()
        })
        .compile_closed(&prelude::poly_id())
        .unwrap();
        assert_eq!(unchecked.phases.check, 0);
        assert_eq!(unchecked.phases.verify, 0);

        let merged = phases.merged(&parsed.phases);
        assert_eq!(merged.typecheck, phases.typecheck + parsed.phases.typecheck);
        assert_eq!(merged.parse, parsed.phases.parse);
    }

    #[test]
    fn traced_compiles_emit_phase_spans() {
        let (_, built) = trace::capture(|| {
            Compiler::new().compile_closed(&prelude::poly_compose()).unwrap();
        });
        for phase in ["typecheck", "translate", "check", "verify"] {
            assert_eq!(built.spans_named(phase).count(), 1, "missing span {phase}");
        }
        let metrics = BuildMetrics::of(&built);
        assert_eq!(metrics.workers, 1);
        assert!(metrics.phase_ns("typecheck") > 0);
        assert!(metrics.makespan_ns > 0);
        assert!(metrics.utilization() > 0.0 && metrics.utilization() <= 1.0);
        assert!(metrics.makespan_gap().is_none(), "critical path unknown here");
        assert!(metrics.to_string().contains("workers"));
    }

    #[test]
    fn build_metrics_math_is_pinned() {
        // Hand-built trace: two workers, worker 0 busy 6 of 10, worker 1
        // busy 4 of 10 (top-level spans only; the nested span must not
        // double count).
        use cccc_util::trace::SpanRecord;
        let span = |id: u64, parent: Option<u64>, name: &'static str, worker, s, e| SpanRecord {
            id,
            parent,
            name,
            unit: None,
            worker,
            start_ns: s,
            end_ns: e,
            counters: Vec::new(),
        };
        let built = BuildTrace {
            spans: vec![
                span(0, None, "unit", 0, 0, 6),
                span(1, Some(0), "typecheck", 0, 1, 5),
                span(2, None, "unit", 1, 2, 6),
                span(3, None, "unit", 1, 8, 10),
            ],
            events: Vec::new(),
            total_ns: 12,
        };
        let mut metrics = BuildMetrics::of(&built);
        assert_eq!(metrics.makespan_ns, 10);
        assert_eq!(metrics.workers, 2);
        assert_eq!(metrics.busy_ns(), 12);
        assert_eq!(metrics.worker_busy_ns, vec![(0, 6), (1, 6)]);
        assert!((metrics.utilization() - 12.0 / 20.0).abs() < 1e-9);
        assert_eq!(metrics.phase_ns("typecheck"), 4);
        assert_eq!(metrics.event_count("missing"), 0);
        metrics.critical_path_ns = 8;
        assert!((metrics.makespan_gap().unwrap() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn recompiling_a_program_reuses_every_translated_node() {
        // is_even (mul 4 4): with the first compilation alive, compiling
        // the same program again on this thread translates to nodes that
        // already exist. Output checking is off for the second compile so
        // that it runs typecheck and translate only, and the CC-CC
        // interner counts the translation's nodes alone.
        let four = prelude::church_numeral(4);
        let square = s::app(s::app(prelude::church_mul(), four.clone()), four);
        let program = s::app(prelude::church_is_even(), square);
        let first = Compiler::new().compile_closed(&program).unwrap();

        let translate_only = Compiler::with_options(CompilerOptions {
            typecheck_output: false,
            ..Default::default()
        });
        let before = tgt::ast::intern_stats();
        let second = translate_only.compile_closed(&program).unwrap();
        let interned = tgt::ast::intern_stats().since(&before);
        assert_eq!(interned.misses, 0, "the second translation interned new nodes");
        assert!(interned.hits > 0);
        assert!(second.target == first.target);
        assert!(second.target_type == first.target_type);

        // A fully checked recompile returns the very same nodes too.
        let checked = Compiler::new().compile_closed(&program).unwrap();
        assert!(checked.target == first.target);
    }

    #[test]
    fn compilation_reports_sizes() {
        let compilation = Compiler::new().compile_closed(&prelude::poly_compose()).unwrap();
        assert!(compilation.source_size() > 0);
        assert!(compilation.target_size() > compilation.source_size());
        assert!(compilation.expansion_factor() > 1.0);
    }
}
