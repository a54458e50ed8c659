//! Demand-driven query keys and per-phase memo state.
//!
//! PR 5's cache was *whole-unit*: one fingerprint per unit covering its
//! source, every transitive dependency's source, and the option bits; any
//! upstream edit cascaded a full recompile downstream. This module
//! re-expresses the pipeline as three memoized queries with **early
//! cutoff** — a downstream query re-runs only when its *input's output*
//! actually changed, not merely because something upstream re-executed:
//!
//! - `unit → cc-artifact` ([`artifact_key`]): keyed by the unit's own
//!   α-invariant source fingerprint plus the fold of its dependencies'
//!   **interface** fingerprints. An implementation-only edit upstream
//!   changes a dependency's source but not its interface, so dependents'
//!   artifact keys are unchanged and their translate phase is skipped.
//! - `artifact → checked` ([`check_key`]): keyed by the artifact's
//!   **output** fingerprint (interface ⊕ target ⊕ target type, all
//!   α-invariant). Re-type-checking a CC-CC term depends only on that
//!   term, so α-equivalent artifacts — even from different units — share
//!   one check result per session.
//! - `unit → verified` ([`verify_key`]): the end-to-end verdict ("this
//!   unit's artifact type-checks and preserves its source type"), keyed by
//!   source, dependencies, output, and the engine bit. A hit skips the
//!   check *and* verify phases entirely; the session persists hits as
//!   tiny on-disk records so restarts skip them too.
//!
//! Each key bakes in the one [`CompilerOptions`] bit that can change a
//! phase's result, `use_nbe`; the other options never change what a
//! successful compile produces.
//!
//! [`QueryState`] is the in-memory memo table shared by all workers of a
//! [`Session`](crate::session::Session); [`PhaseRuns`] records, per unit
//! and per build, which phases actually executed — the observable that the
//! edit-script gates and `--timings` report on.

use std::collections::{HashMap, HashSet};

use cccc_core::pipeline::CompilerOptions;
use cccc_util::wire::{Fingerprint, WireTerm};

/// Domain-separation words mixed into each query key so that the three
/// query kinds can never collide even when built from the same inputs.
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

/// Key of the `artifact → checked` query: the artifact's output
/// fingerprint plus the dependency fold (the check runs in an environment
/// built from the dependencies' interfaces).
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

/// Memo of one successful `artifact → checked` run: the α-invariant
/// fingerprint of the inferred type and its wire encoding, so a later hit
/// can hand the inferred type to the verify phase without re-checking.
#[derive(Clone, Debug)]
pub struct CheckMemo {
    /// α-invariant fingerprint of the inferred type (the check query's
    /// output fingerprint — what early cutoff compares).
    pub output: Fingerprint,
    /// Portable encoding of the inferred type, decoded on memo hits.
    pub inferred: WireTerm,
}

/// The session-wide in-memory memo table for the check and verified
/// queries. Content-addressed: α-equivalent artifacts share entries, so
/// sixteen α-equivalent units check and verify exactly once.
#[derive(Debug, Default)]
pub struct QueryState {
    verified: HashSet<Fingerprint>,
    checks: HashMap<Fingerprint, CheckMemo>,
}

impl QueryState {
    /// Has this end-to-end verdict already been established this session?
    pub fn is_verified(&self, key: Fingerprint) -> bool {
        self.verified.contains(&key)
    }

    /// Record a successful verification.
    pub fn record_verified(&mut self, key: Fingerprint) {
        self.verified.insert(key);
    }

    /// Look up a check memo by its query key.
    pub fn check_memo(&self, key: Fingerprint) -> Option<CheckMemo> {
        self.checks.get(&key).cloned()
    }

    /// Record a successful check run.
    pub fn record_check(&mut self, key: Fingerprint, memo: CheckMemo) {
        self.checks.insert(key, memo);
    }

    /// Forget everything — used by `Session::clear_cache` so a cleared
    /// session really is cold.
    pub fn clear(&mut self) {
        self.verified.clear();
        self.checks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut state = QueryState::default();
        let k = Fingerprint::of_str("verdict");
        assert!(!state.is_verified(k));
        state.record_verified(k);
        assert!(state.is_verified(k));

        let ck = Fingerprint::of_str("check");
        assert!(state.check_memo(ck).is_none());
        state.record_check(
            ck,
            CheckMemo {
                output: Fingerprint::of_str("out"),
                inferred: WireTerm::from_words(vec![7]),
            },
        );
        let memo = state.check_memo(ck).expect("memo recorded");
        assert_eq!(memo.output, Fingerprint::of_str("out"));

        state.clear();
        assert!(!state.is_verified(k));
        assert!(state.check_memo(ck).is_none());
    }
}
