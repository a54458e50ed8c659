//! Parallel incremental module driver for typed closure conversion.
//!
//! The paper's headline property — CC-CC code is checked in the *empty*
//! environment (`[Code]`), so components are separately compilable and
//! type-safely linkable — is what makes a *module driver* possible: many
//! named units, each compiled against its imports' interfaces only,
//! scheduled concurrently, and skipped entirely when nothing they depend
//! on has changed. This crate is that driver:
//!
//! * [`graph`] — the compilation-unit graph: named units with typed
//!   import interfaces, cycle detection, topological scheduling;
//! * [`session`] — the [`session::Session`]: a worker pool compiling
//!   ready units in parallel (one interner per worker thread; terms cross
//!   workers through [`cccc_util::wire`]), per-unit diagnostics, and
//!   module-level linking;
//! * [`cache`] — the fingerprint-keyed artifact cache: a unit's artifact
//!   is keyed by its source, its options, and its imports' *interface*
//!   fingerprints, so no-op rebuilds re-verify nothing and
//!   implementation-only changes don't cascade;
//! * [`poison`] — poisoned interfaces for keep-going builds
//!   ([`cccc_core::pipeline::CompilerOptions::keep_going`]): a failed
//!   unit publishes its partial interface plus diagnostics, so dependents
//!   type-check and report their *own* errors instead of being skipped;
//! * [`workloads`] — multi-unit workload families (independent units,
//!   diamonds, deep chains) for the benches and the differential suites;
//! * [`chaos`] — the seeded chaos harness: composable storage faults,
//!   injected worker panics, read latency, and mid-build cancellation,
//!   with every run differentially checked against the sequential
//!   oracle;
//! * [`timings`] — the `--timings` text report: per-phase totals,
//!   per-unit table, and (for traced builds,
//!   [`session::Session::set_tracing`]) worker utilization and the
//!   actual-vs-critical-path makespan gap.
//!
//! The sequential pipeline ([`cccc_core::Compiler`]) remains the oracle:
//! [`session::Session::compile_sequential`] runs it unit by unit, and the
//! differential tests require the parallel build to produce α-equivalent
//! CC-CC output and identical verification verdicts.
//!
//! # Example
//!
//! ```
//! use cccc_driver::session::Session;
//! use cccc_core::pipeline::CompilerOptions;
//! use cccc_source::builder as s;
//! use cccc_source::prelude;
//!
//! let mut session = Session::new(CompilerOptions::default());
//! session.add_unit("id", &[], &prelude::poly_id()).unwrap();
//! session
//!     .add_unit("main", &["id"], &s::app(s::app(s::var("id"), s::bool_ty()), s::tt()))
//!     .unwrap();
//!
//! let report = session.build(2).unwrap();
//! assert!(report.is_success());
//! assert_eq!(report.compiled_count(), 2);
//!
//! // A no-change rebuild compiles nothing …
//! let warm = session.build(2).unwrap();
//! assert_eq!(warm.compiled_count(), 0);
//! assert_eq!(warm.cached_count(), 2);
//!
//! // … and the linked program still runs.
//! assert_eq!(session.observe("main").unwrap(), Some(true));
//! ```

pub mod cache;
pub mod chaos;
pub mod graph;
pub mod poison;
pub mod query;
pub mod session;
pub mod store;
pub mod timings;
pub mod workloads;

pub use cache::{Artifact, ArtifactCache, CacheStats, CacheTier};
pub use chaos::{ChaosOutcome, ChaosPlan, PanicPlan};
pub use graph::{Plan, Unit, UnitGraph};
pub use poison::PoisonedInterface;
pub use session::{BuildReport, Session, UnitReport, UnitStatus};
pub use store::{ArtifactStore, FaultPlan, GcReport, StoreBudget};

use std::fmt;

/// Errors produced by the driver (graph validation, linking, artifact
/// access). Per-unit *pipeline* failures are not errors at this level —
/// they are reported per unit in [`BuildReport`].
#[derive(Clone, Debug)]
pub enum DriverError {
    /// A unit with this name already exists.
    DuplicateUnit(String),
    /// A unit imports a name no unit has.
    UnknownImport {
        /// The importing unit.
        unit: String,
        /// The dangling import name.
        import: String,
    },
    /// The import relation has a cycle (members listed).
    Cycle(Vec<String>),
    /// No unit has this name.
    UnknownUnit(String),
    /// The unit has no artifact (not yet built, or its build failed).
    NotBuilt(String),
    /// A unit failed to compile (sequential oracle only; parallel builds
    /// report failures per unit instead).
    UnitFailed {
        /// The failing unit.
        unit: String,
        /// The pipeline error, rendered.
        message: String,
    },
    /// A wire buffer failed to decode — corruption, should not happen.
    Wire(String),
    /// The persistent artifact store could not be opened or wiped.
    /// (Corrupt *entries* inside an open store are never errors — they
    /// read as cache misses.)
    Store(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::DuplicateUnit(name) => write!(f, "duplicate unit `{name}`"),
            DriverError::UnknownImport { unit, import } => {
                write!(f, "unit `{unit}` imports unknown unit `{import}`")
            }
            DriverError::Cycle(members) => {
                write!(f, "import cycle among units: {}", members.join(", "))
            }
            DriverError::UnknownUnit(name) => write!(f, "no unit named `{name}`"),
            DriverError::NotBuilt(name) => {
                write!(f, "unit `{name}` has no artifact (build it first)")
            }
            DriverError::UnitFailed { unit, message } => {
                write!(f, "unit `{unit}` failed to compile: {message}")
            }
            DriverError::Wire(message) => write!(f, "artifact decode failed: {message}"),
            DriverError::Store(message) => write!(f, "artifact store failed: {message}"),
        }
    }
}

impl std::error::Error for DriverError {}
