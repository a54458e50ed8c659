//! Demand-driven query keys and per-unit phase accounting.
//!
//! A whole-unit cache — one fingerprint per unit covering its source,
//! every transitive dependency's source, and the option bits — turns any
//! upstream edit into a full recompile downstream. The driver instead
//! answers each unit from two memoized queries with **early cutoff** — a
//! downstream query re-runs only when its *input's output* actually
//! changed, not merely because something upstream re-executed:
//!
//! - `unit → cc-artifact` ([`artifact_key`]): keyed by the unit's own
//!   α-invariant source fingerprint plus the fold of its dependencies'
//!   **interface** fingerprints. An implementation-only edit upstream
//!   changes a dependency's source but not its interface, so dependents'
//!   artifact keys are unchanged and their typecheck and translate
//!   phases are skipped.
//! - `unit → verified` ([`verify_key`]): the end-to-end verdict ("this
//!   unit's artifact type-checks and preserves its source type"), keyed by
//!   source, dependencies, the artifact's **output** fingerprint
//!   (interface ⊕ target ⊕ target type, all α-invariant), and the engine
//!   bit. A hit skips the check *and* verify phases entirely. The
//!   session persists verdicts as tiny on-disk records so restarts skip
//!   them too.
//!
//! α-twins — units equal up to binder names, with the same imports —
//! share every key. The session's artifact table ([`crate::cache`]) is
//! keyed by the artifact key and single-flight, so one claim loads or
//! compiles a twin class, checks and verifies it, and the other twins
//! wait for it instead of running any phase themselves.
//!
//! [`check_key`] only names the check a verified record certifies: each
//! `.vfy` record stores it, and a record answers only while it matches.
//!
//! Each key bakes in the one [`CompilerOptions`] bit that can change a
//! phase's result, `use_nbe`; the other options never change what a
//! successful compile produces.
//!
//! [`PhaseRuns`] records, per unit and per build, which phases actually
//! executed — the observable that the edit-script gates and `--timings`
//! report on.

use cccc_core::pipeline::CompilerOptions;
use cccc_util::wire::Fingerprint;

/// Domain-separation words mixed into each key so that the three key
/// kinds can never collide even when built from the same inputs.
/// The low bit carries the engine flag.
const DOMAIN_ARTIFACT: u64 = 0x71AF_0000_0000_0000;
const DOMAIN_CHECK: u64 = 0x71C4_0000_0000_0000;
const DOMAIN_VERIFY: u64 = 0x71F7_0000_0000_0000;

/// Key of the `unit → cc-artifact` query: the unit's α-invariant source
/// fingerprint, the dependency fold (see [`fold_dep`]), and the engine
/// bit (`use_nbe` swaps the whole checking engine).
pub fn artifact_key(
    source_alpha: Fingerprint,
    dep_fingerprint: Fingerprint,
    options: &CompilerOptions,
) -> Fingerprint {
    source_alpha.combine(dep_fingerprint).combine_word(DOMAIN_ARTIFACT | u64::from(options.use_nbe))
}

/// Key of the check a verified record certifies: the artifact's output
/// fingerprint plus the dependency fold (the check runs in an environment
/// built from the dependencies' interfaces). Stored in every `.vfy`
/// record and compared when one is read back.
pub fn check_key(
    output_alpha: Fingerprint,
    dep_fingerprint: Fingerprint,
    options: &CompilerOptions,
) -> Fingerprint {
    output_alpha.combine(dep_fingerprint).combine_word(DOMAIN_CHECK | u64::from(options.use_nbe))
}

/// Key of the `unit → verified` query: source, dependency fold, output,
/// and the engine bit.
pub fn verify_key(
    source_alpha: Fingerprint,
    dep_fingerprint: Fingerprint,
    output_alpha: Fingerprint,
    options: &CompilerOptions,
) -> Fingerprint {
    source_alpha
        .combine(dep_fingerprint)
        .combine(output_alpha)
        .combine_word(DOMAIN_VERIFY | u64::from(options.use_nbe))
}

/// Folds one dependency's contribution — its *interface* fingerprint —
/// into a dependency fingerprint. The name is mixed in so that permuting
/// two dependencies' contributions cannot cancel out.
pub fn fold_dep(acc: Fingerprint, name: &str, contribution: Fingerprint) -> Fingerprint {
    acc.combine(Fingerprint::of_str(name)).combine(contribution)
}

/// Which pipeline phases actually executed for one unit in one build.
/// `false` means the phase was *skipped* — answered from a memo, a
/// verified record, or cut off early — which is exactly the observable
/// the edit-script gates assert on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseRuns {
    /// Source-side type checking ran.
    pub typecheck: bool,
    /// Closure-conversion translation ran.
    pub translate: bool,
    /// Target-side re-type-checking of the CC-CC term ran.
    pub check: bool,
    /// The verification verdict (type equality / preservation) ran.
    pub verify: bool,
}

impl PhaseRuns {
    /// No phase executed: the unit was served entirely from caches.
    pub const NONE: PhaseRuns =
        PhaseRuns { typecheck: false, translate: false, check: false, verify: false };

    /// Every phase executed: a cold compile.
    pub const ALL: PhaseRuns =
        PhaseRuns { typecheck: true, translate: true, check: true, verify: true };

    /// Did any phase execute? `Compiled` status in the build report means
    /// exactly this; `Cached` means `!any()`.
    pub fn any(&self) -> bool {
        self.typecheck || self.translate || self.check || self.verify
    }

    /// Number of phases that executed (0..=4).
    pub fn count(&self) -> usize {
        usize::from(self.typecheck)
            + usize::from(self.translate)
            + usize::from(self.check)
            + usize::from(self.verify)
    }
}

/// Per-phase execution totals over a whole build — the sum of every
/// unit's [`PhaseRuns`], reported on `BuildReport` and asserted by the
/// differential edit-script suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryCounts {
    /// Units whose source-side type check ran.
    pub typecheck: usize,
    /// Units whose translation ran.
    pub translate: usize,
    /// Units whose target-side check ran.
    pub check: usize,
    /// Units whose verification ran.
    pub verify: usize,
}

impl QueryCounts {
    /// Accumulate one unit's phase runs.
    pub fn add(&mut self, runs: PhaseRuns) {
        self.typecheck += usize::from(runs.typecheck);
        self.translate += usize::from(runs.translate);
        self.check += usize::from(runs.check);
        self.verify += usize::from(runs.verify);
    }

    /// Total phase executions across the build.
    pub fn total(&self) -> usize {
        self.typecheck + self.translate + self.check + self.verify
    }
}

impl std::fmt::Display for QueryCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phases {}tc/{}tr/{}ck/{}vf",
            self.typecheck, self.translate, self.check, self.verify
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use cccc_source::builder as s;

    fn options() -> CompilerOptions {
        CompilerOptions::default()
    }

    #[test]
    fn keys_are_domain_separated_and_option_sensitive() {
        let s = Fingerprint::of_str("source");
        let d = Fingerprint::of_str("deps");
        let o = Fingerprint::of_str("output");
        let base = options();

        let a = artifact_key(s, d, &base);
        let c = check_key(s, d, &base);
        let v = verify_key(s, d, o, &base);
        assert_ne!(a, c, "artifact and check keys must not collide");
        assert_ne!(a, v, "artifact and verify keys must not collide");
        assert_ne!(c, v, "check and verify keys must not collide");

        // Options that never change a successful compile's output stay
        // out of every key.
        let keep_going = CompilerOptions { keep_going: !base.keep_going, ..base };
        assert_eq!(a, artifact_key(s, d, &keep_going));
        assert_eq!(c, check_key(s, d, &keep_going));
        assert_eq!(v, verify_key(s, d, o, &keep_going));

        // The engine choice changes every phase's behaviour, so it is
        // baked into every key.
        let nbe_flipped = CompilerOptions { use_nbe: !base.use_nbe, ..base };
        assert_ne!(a, artifact_key(s, d, &nbe_flipped));
        assert_ne!(c, check_key(s, d, &nbe_flipped));
        assert_ne!(v, verify_key(s, d, o, &nbe_flipped));
    }

    #[test]
    fn dep_fold_is_order_and_name_sensitive() {
        let fp = |s: &str| Fingerprint::of_str(s);
        let ab = fold_dep(fold_dep(Fingerprint::default(), "a", fp("x")), "b", fp("y"));
        let ba = fold_dep(fold_dep(Fingerprint::default(), "b", fp("y")), "a", fp("x"));
        assert_ne!(ab, ba, "dependency order must be captured");
        let renamed = fold_dep(fold_dep(Fingerprint::default(), "a", fp("x")), "c", fp("y"));
        assert_ne!(ab, renamed, "dependency names must be captured");
    }

    #[test]
    fn phase_runs_any_and_count() {
        assert!(!PhaseRuns::NONE.any());
        assert_eq!(PhaseRuns::NONE.count(), 0);
        assert!(PhaseRuns::ALL.any());
        assert_eq!(PhaseRuns::ALL.count(), 4);
        let verify_only = PhaseRuns { verify: true, ..PhaseRuns::NONE };
        assert!(verify_only.any());
        assert_eq!(verify_only.count(), 1);
    }

    #[test]
    fn query_counts_accumulate_and_render() {
        let mut counts = QueryCounts::default();
        counts.add(PhaseRuns::ALL);
        counts.add(PhaseRuns { check: true, verify: true, ..PhaseRuns::NONE });
        assert_eq!(counts.typecheck, 1);
        assert_eq!(counts.translate, 1);
        assert_eq!(counts.check, 2);
        assert_eq!(counts.verify, 2);
        assert_eq!(counts.total(), 6);
        assert_eq!(counts.to_string(), "phases 1tc/1tr/2ck/2vf");
    }

    #[test]
    fn query_state_memoizes_and_clears() {
        // The session's query state is its artifact table and verified
        // set: the α-twin `b` is answered by `a`'s artifact and verdict,
        // and `clear_cache` forgets both.
        let mut session = Session::new(options());
        session.add_unit("a", &[], &s::lam("x", s::bool_ty(), s::var("x"))).unwrap();
        session.add_unit("b", &[], &s::lam("y", s::bool_ty(), s::var("y"))).unwrap();
        let cold = session.build(1).unwrap();
        assert_eq!(cold.queries, QueryCounts { typecheck: 1, translate: 1, check: 1, verify: 1 });
        assert_eq!(cold.cached_count(), 1);
        session.clear_cache();
        assert_eq!(session.build(1).unwrap().queries, cold.queries);
    }
}
