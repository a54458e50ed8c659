//! A user-facing compiler pipeline: parse → type check → closure convert →
//! re-check → verify type preservation (Theorem 5.6) on the given program.
//!
//! This is the API the examples and benchmarks drive. It packages the
//! lower-level pieces ([`mod@crate::translate`], [`crate::verify`],
//! [`crate::link`]) behind a [`Compiler`] value with explicit options.
//! [`CompilerOptions::keep_going`] picks the front end's error policy for
//! every entry point: Stop fails at the first error, Collect reports every
//! diagnostic at once through [`CompileError::Recovered`].
//!
//! Every stage runs on the hash-consed term kernel: the type checkers'
//! conversion memo tables, the CC `[Lam]` typing memo and the CC-CC
//! `[Code]` typing memo are shared across compilations on a thread, so
//! re-verifying a component that contains already-seen code (the
//! separate-compilation workflow, or a batch compile) is answered from
//! cache, and the translate phase reads each λ's type from the entry the
//! typecheck phase just made.

use crate::link::{LinkError, SourceSubstitution};
use crate::translate::{translate, translate_env, TranslateError};
use crate::verify::VerifyError;
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::diag::Diagnostic;
use cccc_util::intern::{ConvCacheStats, InternStats};
use cccc_util::trace;
use std::fmt;

/// Configuration for the [`Compiler`]. The type checkers and the verify
/// phase always run on the normalization-by-evaluation engine; the
/// substitution-based step engine stays the specification it is tested
/// against (`infer_with_engine` and `equiv_spec` in both languages).
#[derive(Clone, Copy, Debug, Default)]
pub struct CompilerOptions {
    /// Keep-going mode: the front end's error policy. Off, it is Stop:
    /// [`Compiler::phase_typecheck`] — and with it [`Compiler::compile`]
    /// and [`Compiler::compile_text`] — fails at the first error. On, it
    /// is Collect: the type checker records *every* diagnostic and
    /// recovers with the `<error>` sentinel, `compile_text` parses with
    /// error recovery, and anything short of a clean program fails with
    /// [`CompileError::Recovered`], whose interface the module driver
    /// publishes as a poisoned interface so dependents still report their
    /// own errors. A clean program runs exactly the phases, and in the
    /// driver the queries, a strict one does, and produces bit-identical
    /// artifacts, so this flag deliberately does **not** participate in
    /// the driver's input fingerprints.
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
    /// Type checking the CC input ([`src::typecheck::infer`]).
    pub typecheck: u64,
    /// The closure-conversion translation of the term and of its type.
    pub translate: u64,
    /// Re-type-checking the produced CC-CC term.
    pub check: u64,
    /// The type-preservation verification — Theorem 5.6 as one
    /// conversion between the check phase's inferred type and the
    /// translated type.
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

/// The state of every thread-local cache the pipeline relies on: both
/// languages' term interners and conversion memo tables, the CC `[Lam]`
/// memo and the CC-CC `[Code]` memo.
///
/// [`cache_snapshot`] takes one; [`CacheReport::since`] subtracts an
/// earlier one into the activity in between (counters become deltas,
/// table sizes stay the later observation's). This is how the interner
/// and memo counters of the per-crate free functions
/// ([`src::ast::intern_stats`], [`src::equiv::conv_cache_stats`], their
/// `tgt` twins, [`src::typecheck::lam_memo_stats`] and
/// [`tgt::typecheck::code_memo_stats`]) surface in the
/// driver's per-unit diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheReport {
    /// CC interner counters (hit/miss/prune).
    pub source_intern: InternStats,
    /// CC-CC interner counters (hit/miss/prune).
    pub target_intern: InternStats,
    /// CC conversion-memo counters (identity/memo-hit/miss/rotation).
    pub source_conv: ConvCacheStats,
    /// CC-CC conversion-memo counters (identity/memo-hit/miss/rotation).
    pub target_conv: ConvCacheStats,
    /// `[Lam]` memo counters (memo-hit/miss/rotation).
    pub lam_memo: ConvCacheStats,
    /// `[Code]` memo counters (memo-hit/miss/rotation).
    pub code_memo: ConvCacheStats,
    /// Entries in the CC interner table.
    pub source_intern_table: usize,
    /// Entries in the CC-CC interner table.
    pub target_intern_table: usize,
    /// Entries in the CC conversion memo.
    pub source_conv_table: usize,
    /// Entries in the CC-CC conversion memo.
    pub target_conv_table: usize,
    /// λs in the `[Lam]` memo.
    pub lam_memo_table: usize,
    /// Code blocks in the `[Code]` memo.
    pub code_memo_table: usize,
}

/// Snapshots the current thread's interner and conversion-memo state.
pub fn cache_snapshot() -> CacheReport {
    CacheReport {
        source_intern: src::ast::intern_stats(),
        target_intern: tgt::ast::intern_stats(),
        source_conv: src::equiv::conv_cache_stats(),
        target_conv: tgt::equiv::conv_cache_stats(),
        lam_memo: src::typecheck::lam_memo_stats(),
        code_memo: tgt::typecheck::code_memo_stats(),
        source_intern_table: src::ast::intern_table_len(),
        target_intern_table: tgt::ast::intern_table_len(),
        source_conv_table: src::equiv::conv_cache_len(),
        target_conv_table: tgt::equiv::conv_cache_len(),
        lam_memo_table: src::typecheck::lam_memo_len(),
        code_memo_table: tgt::typecheck::code_memo_len(),
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
            lam_memo: self.lam_memo.since(&earlier.lam_memo),
            code_memo: self.code_memo.since(&earlier.code_memo),
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
    /// Running a compiled ground program stopped before a value: the
    /// source or the target evaluator ran out of fuel
    /// ([`Compiler::compile_and_run`]).
    Eval(String),
    /// Under [`CompilerOptions::keep_going`], the front end did not
    /// produce a clean program: it found errors, or the term or Γ mentions
    /// the `<error>` sentinel. Nothing reached the backend.
    Recovered {
        /// The type the Collect policy inferred: the unit's interface,
        /// mentioning the sentinel wherever recovery happened.
        interface: src::Term,
        /// Every diagnostic, in phase order: parse errors (`E0100`)
        /// first, then type errors.
        diagnostics: Vec<Diagnostic>,
    },
}

impl CompileError {
    /// The error as coded diagnostics: every diagnostic a
    /// [`CompileError::Recovered`] front end collected, or one diagnostic
    /// for any other error. Parse and type errors carry their per-variant
    /// codes ([`src::TypeError::code`], [`tgt::TypeError::code`]); the
    /// later phases get phase-level codes (`E0200` translate, `E0300`
    /// verify, `E0400` link, `E0500` evaluation).
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        let diagnostic = match self {
            CompileError::Recovered { diagnostics, .. } => return diagnostics,
            CompileError::Parse(e) => e.to_diagnostic(),
            CompileError::SourceType(e) => Diagnostic::error(e.to_string()).with_code(e.code()),
            CompileError::Translate(e) => Diagnostic::error(e.to_string()).with_code("E0200"),
            CompileError::TargetType(e) => Diagnostic::error(e.to_string()).with_code(e.code()),
            CompileError::Verify(e) => Diagnostic::error(e.to_string()).with_code("E0300"),
            CompileError::Link(e) => Diagnostic::error(e.to_string()).with_code("E0400"),
            CompileError::Eval(e) => Diagnostic::error(e).with_code("E0500"),
        };
        vec![diagnostic]
    }
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
            CompileError::Eval(e) => write!(f, "{e}"),
            CompileError::Recovered { diagnostics, .. } => {
                let mut errors = diagnostics.iter().filter(|d| d.is_error());
                let Some(first) = errors.next() else {
                    return write!(f, "the program or its environment mentions `<error>`");
                };
                write!(f, "{}", first.headline())?;
                match errors.count() {
                    0 => Ok(()),
                    more => write!(f, " (and {more} more)"),
                }
            }
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

    /// Runs the `typecheck` phase alone: infers the CC type of `term`
    /// under `env` (the unit's interface), returning the type and the
    /// phase's wall-clock nanoseconds, under the error policy
    /// [`CompilerOptions::keep_going`] selects (see
    /// [`cccc_source::typecheck`]). Records the same `typecheck` span a
    /// full [`Compiler::compile`] would, so traced callers see one span
    /// per phase regardless of which entry point ran it.
    ///
    /// # Errors
    ///
    /// Under Stop, returns a [`CompileError::SourceType`] on an ill-typed
    /// input. Under Collect, returns [`CompileError::Recovered`] unless
    /// the input is clean: no error diagnostic, and neither `term` nor
    /// `env` mentions the sentinel.
    pub fn phase_typecheck(&self, env: &src::Env, term: &src::Term) -> Result<(src::Term, u64)> {
        if !self.options.keep_going {
            let (ty, ns) = trace::timed("typecheck", || src::typecheck::infer(env, term));
            return Ok((ty?, ns));
        }
        let ((interface, diagnostics), ns) =
            trace::timed("typecheck", || src::typecheck::infer_collecting(env, term));
        if diagnostics.iter().any(Diagnostic::is_error)
            || src::tolerant::is_poisoned(term)
            || src::tolerant::env_is_poisoned(env)
        {
            return Err(CompileError::Recovered { interface, diagnostics });
        }
        Ok((interface, ns))
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
    /// nanoseconds.
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
        let (checked, ns) = trace::timed("check", || {
            let target_env = translate_env(env)?;
            let inferred = tgt::typecheck::infer(&target_env, target)?;
            Ok::<_, CompileError>((target_env, inferred))
        });
        let (target_env, inferred) = checked?;
        Ok((target_env, inferred, ns))
    }

    /// Runs the `verify` phase alone: Theorem 5.6 (Γ⁺ ⊢ e⁺ : A⁺) on the
    /// unit, as one conversion. [`Compiler::phase_check`] already
    /// established Γ⁺ ⊢ e⁺ : `inferred`; this phase checks `inferred` ≡
    /// `target_type` (the translation A⁺) under Γ⁺. `target_env` is check's Γ⁺
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
                tgt::equiv::equiv(target_env, inferred, target_type, &mut fuel).unwrap_or(false);
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
    /// [`Compiler::phase_verify`]) composed in order, under the error
    /// policy [`CompilerOptions::keep_going`] selects.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if any stage fails;
    /// [`CompileError::Recovered`] when a keep-going type check was not
    /// clean.
    pub fn compile(&self, env: &src::Env, term: &src::Term) -> Result<Compilation> {
        let (source_type, typecheck_ns) = self.phase_typecheck(env, term)?;
        self.compile_typed(env, term, source_type, typecheck_ns)
    }

    /// The backend both [`Compiler::compile`] and
    /// [`Compiler::compile_text`] hand a clean source type to: translate,
    /// check, and verify.
    fn compile_typed(
        &self,
        env: &src::Env,
        term: &src::Term,
        source_type: src::Term,
        typecheck_ns: u64,
    ) -> Result<Compilation> {
        let (target, target_type, translate) = self.phase_translate(env, term, &source_type)?;
        let (target_env, inferred, check) = self.phase_check(env, &target)?;
        let verify = self.phase_verify(env, term, Some(&target_env), &inferred, &target_type)?;
        let phases = PhaseNanos {
            typecheck: typecheck_ns,
            translate,
            check,
            verify,
            ..PhaseNanos::default()
        };
        Ok(Compilation { source: term.clone(), source_type, target, target_type, phases })
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
    /// syntax. Under [`CompilerOptions::keep_going`] the parser recovers
    /// at synchronizing tokens, patching `<error>` holes into the term,
    /// and reports every parse error.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`]; additionally returns parse errors. Under
    /// keep-going, a program with parse errors never reaches the backend:
    /// it fails with [`CompileError::Recovered`], its `E0100`s ahead of
    /// the type checker's diagnostics.
    pub fn compile_text(&self, source_text: &str) -> Result<Compilation> {
        let (parsed, parse_ns) = trace::timed("parse", || {
            if self.options.keep_going {
                Ok(src::parse::parse_term_tolerant(source_text))
            } else {
                src::parse::parse_term(source_text).map(|term| (term, Vec::new()))
            }
        });
        let (term, parse_errors) = parsed?;
        let env = src::Env::new();
        let (interface, diagnostics) = match self.phase_typecheck(&env, &term) {
            Ok((source_type, typecheck_ns)) if parse_errors.is_empty() => {
                let mut compilation = self.compile_typed(&env, &term, source_type, typecheck_ns)?;
                compilation.phases.parse = parse_ns;
                return Ok(compilation);
            }
            // Recovery can leave a sentinel-free term (a skipped character,
            // a missing `(`), which type-checks clean.
            Ok((interface, _)) => (interface, Vec::new()),
            Err(CompileError::Recovered { interface, diagnostics }) => (interface, diagnostics),
            Err(error) => return Err(error),
        };
        let parse_diagnostics = parse_errors.iter().map(src::parse::ParseError::to_diagnostic);
        let diagnostics = parse_diagnostics.chain(diagnostics).collect();
        Err(CompileError::Recovered { interface, diagnostics })
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
    /// Returns an error if compilation fails, either side runs out of fuel
    /// ([`CompileError::Eval`]), or either side fails to produce a boolean.
    pub fn compile_and_run(&self, term: &src::Term) -> Result<(bool, bool)> {
        let compilation = self.compile_closed(term)?;
        let source_value = crate::link::run_source(term)
            .map_err(|e| CompileError::Eval(format!("running the source program: {e}")))?
            .ok_or_else(|| CompileError::Verify(VerifyError::NotGround(term.to_string())))?;
        let target_value = crate::link::run_target(&compilation.target)
            .map_err(|e| CompileError::Eval(format!("running the compiled program: {e}")))?
            .ok_or_else(|| {
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
    fn compile_and_run_reports_running_out_of_fuel() {
        // `is_even` on 30⁴ in Church numerals: the numerals nest only 30
        // deep, so compiling is cheap, but running exhausts the default fuel.
        let mul = |a, b| s::app(s::app(prelude::church_mul(), a), b);
        let square = mul(prelude::church_numeral(30), prelude::church_numeral(30));
        let program = s::app(prelude::church_is_even(), mul(square.clone(), square));
        match Compiler::new().compile_and_run(&program) {
            Err(CompileError::Eval(message)) => {
                assert!(message.contains("fuel"), "{message}");
            }
            other => panic!("expected an evaluation error, got {other:?}"),
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

    fn keep_going() -> Compiler {
        Compiler::with_options(CompilerOptions { keep_going: true, ..CompilerOptions::default() })
    }

    #[test]
    fn keep_going_compile_text_recovers_every_error_and_strict_stops_at_the_first() {
        let text = "if (true false) then missing else (\\(x : Bool). x) *";
        let recovered = keep_going().compile_text(text).unwrap_err();
        assert_eq!(
            recovered.to_string(),
            "error[E0003]: `true` is applied but has non-function type `Bool` (and 2 more)"
        );
        let CompileError::Recovered { interface, diagnostics } = recovered else {
            panic!("keep-going must recover, got {recovered}");
        };
        let codes: Vec<&str> = diagnostics.iter().filter_map(|d| d.code.as_deref()).collect();
        assert_eq!(codes, ["E0003", "E0001", "E0008"]);
        assert!(src::tolerant::is_poisoned(&interface));

        let strict = Compiler::new().compile_text(text).unwrap_err();
        assert!(matches!(&strict, CompileError::SourceType(e) if e.code() == "E0003"), "{strict}");
        assert_eq!(strict.into_diagnostics().len(), 1, "Stop reports the first error only");
    }

    #[test]
    fn keep_going_parse_errors_never_reach_the_backend() {
        // Recovery skips the stray `#` and the missing `)` without leaving
        // an `<error>` hole: the term type-checks clean, but the program
        // still fails, with only the parser's diagnostics.
        for text in ["true #", "(true"] {
            assert!(matches!(Compiler::new().compile_text(text), Err(CompileError::Parse(_))));
            let Err(CompileError::Recovered { interface, diagnostics }) =
                keep_going().compile_text(text)
            else {
                panic!("`{text}`: parse errors must fail a keep-going compile");
            };
            assert!(src::equiv::definitionally_equal(&src::Env::new(), &interface, &s::bool_ty()));
            let codes: Vec<&str> = diagnostics.iter().filter_map(|d| d.code.as_deref()).collect();
            assert_eq!(codes, ["E0100"], "`{text}`");
        }
        // A sentinel-bearing term with no error of its own is held back too.
        let Err(error @ CompileError::Recovered { .. }) =
            keep_going().compile_closed(&src::tolerant::error_term())
        else {
            panic!("a poisoned term must not compile");
        };
        assert_eq!(error.to_string(), "the program or its environment mentions `<error>`");
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
        for checked_env in [Some(&target_env), None] {
            let error = Compiler::new()
                .phase_verify(&env, &prelude::poly_id(), checked_env, &inferred, &target_type)
                .expect_err("an inferred type that is not A⁺ must be rejected");
            let CompileError::Verify(VerifyError::NotEquivalent { context, .. }) = &error else {
                panic!("expected NotEquivalent, got {error}");
            };
            assert_eq!(context, "type preservation (Theorem 5.6)");
            assert_eq!(error.into_diagnostics()[0].code.as_deref(), Some("E0300"));
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
        let compiler = Compiler::new();
        for checked_env in [Some(&target_env), None] {
            compiler
                .phase_verify(&env, &redex, checked_env, &inferred, &target_type)
                .unwrap_or_else(|e| panic!("convertible types: {e}"));
        }
        // The conversion runs under the Γ⁺ it is handed: without B⁺'s
        // definition the two types are not convertible.
        let error = compiler
            .phase_verify(&env, &redex, Some(&tgt::Env::new()), &inferred, &target_type)
            .expect_err("B⁺ is opaque without its definition");
        assert!(matches!(error, CompileError::Verify(VerifyError::NotEquivalent { .. })));
    }

    #[test]
    fn the_step_engine_confirms_type_preservation_on_the_corpus() {
        // Theorem 5.6 on the reference engine: what the compiler produced
        // on NbE also type-checks by the paper's own reduction and
        // equivalence rules (Fig. 6), at a type equivalent to A⁺.
        let env = tgt::Env::new();
        for entry in prelude::corpus() {
            let compilation = Compiler::new().compile_closed(&entry.term).unwrap();
            let inferred = tgt::typecheck::infer_with_engine(
                &env,
                &compilation.target,
                tgt::equiv::Engine::Step,
            )
            .unwrap_or_else(|e| panic!("`{}` is ill-typed on the step engine: {e}", entry.name));
            assert!(
                tgt::equiv::definitionally_equal_spec(&env, &inferred, &compilation.target_type),
                "`{}` does not preserve its type on the step engine",
                entry.name
            );
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
        // Snapshotting is observation only: two consecutive snapshots
        // with no work in between must subtract to all-zero deltas.
        let idle = cache_snapshot().since(&after);
        assert_eq!(idle.intern_requests(), 0);
        for conv in [idle.source_conv, idle.target_conv] {
            assert_eq!((conv.identity_hits, conv.memo_hits, conv.memo_misses), (0, 0, 0));
        }
    }

    #[test]
    fn store_stats_subtract_counters_and_keep_sizes() {
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
        assert_eq!(built.workers(), [0]);
        assert!(built.makespan_ns() > 0);
        assert!(built.utilization() > 0.0 && built.utilization() <= 1.0);
    }

    #[test]
    fn recompiling_a_program_reuses_every_translated_node() {
        // is_even (mul 4 4): with the first compilation alive, compiling
        // the same program again on this thread translates to nodes that
        // already exist. The second compile runs typecheck and translate
        // only, so the CC-CC interner counts the translation's nodes alone.
        let four = prelude::church_numeral(4);
        let square = s::app(s::app(prelude::church_mul(), four.clone()), four);
        let program = s::app(prelude::church_is_even(), square);
        let first = Compiler::new().compile_closed(&program).unwrap();

        let compiler = Compiler::new();
        let env = src::Env::new();
        let before = tgt::ast::intern_stats();
        let (source_type, _) = compiler.phase_typecheck(&env, &program).unwrap();
        let (target, target_type, _) =
            compiler.phase_translate(&env, &program, &source_type).unwrap();
        let interned = tgt::ast::intern_stats().since(&before);
        assert_eq!(interned.misses, 0, "the second translation interned new nodes");
        assert!(interned.hits > 0);
        assert!(target == first.target);
        assert!(target_type == first.target_type);

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
