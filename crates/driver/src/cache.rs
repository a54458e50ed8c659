//! The session's artifact table: one map from artifact key to artifact,
//! shared by compiles and store loads, with single-flight claims.
//!
//! A compiled unit's artifact is fully determined by its *artifact
//! query key* ([`crate::query::artifact_key`]): the α-invariant
//! fingerprint of its source, the output-affecting compiler options,
//! and the interface fingerprints of its transitive imports (a unit is
//! compiled against interfaces only — §5.2 separate compilation — so
//! import *bodies* are deliberately absent). The table is therefore keyed
//! by content, not by unit name: α-twins — units equal up to binder
//! names, with the same imports — share one entry.
//!
//! Each key is `Ready` (the artifact plus the [`CacheTier`] it came
//! from) or `InFlight`. A worker that finds no settled entry *claims*
//! the key and runs the whole unit under the claim: the store load,
//! else typecheck + translate, then the verified query; it publishes
//! only once the verdict is recorded. Workers wanting the same key
//! meanwhile wait on the claim instead of loading or compiling it again
//! ([`CacheStats::coalesced`]), so each α-class is loaded or compiled,
//! and verified, by one claim at any worker count. A claim dropped
//! without publishing — a failed phase, a panic, a cancellation — clears
//! the key and wakes the waiters, each of which then claims it itself.
//!
//! After every build the table keeps only each unit name's latest key
//! (at most one artifact per name), and every entry left moves to the
//! memory tier for the next build. The persistent store is the
//! session's, not the table's: see [`crate::store`].
//!
//! Artifacts are wire-encoded ([`cccc_target::wire`]) and shared behind
//! [`Arc`], so table reads hand workers cheap clones across threads.

use crate::store::LazySections;
use cccc_util::wire::{Fingerprint, WireTerm};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Where an artifact's three wire sections live: in memory (a fresh
/// compile) or still on disk behind a lazily loaded blob's section
/// table.
#[derive(Debug)]
enum Sections {
    /// All three sections materialized.
    Eager { source_ty: WireTerm, target: WireTerm, target_ty: WireTerm },
    /// Sections `pread` + checksummed on first access (see
    /// [`crate::store`]'s v3 blob format).
    Lazy(LazySections),
}

/// The compiled outputs of one unit, wire-encoded and thread-portable.
///
/// The two α-invariant fingerprints — interface and whole-output — are
/// always available (a lazy disk load reads them straight from the blob
/// header), so the query pipeline's fingerprint folding, early cutoff,
/// and `verified`-record checks never force a section decode. The
/// section accessors are fallible: on a lazily loaded artifact the
/// first access performs the deferred read, and a blob that rotted on
/// disk since its header was verified surfaces the corruption *here* —
/// the session treats that as a cache miss and recompiles.
#[derive(Debug)]
pub struct Artifact {
    sections: Sections,
    interface_alpha: Fingerprint,
    output_alpha: Fingerprint,
}

impl Artifact {
    /// An artifact whose sections are in memory — the shape every fresh
    /// compile produces.
    pub fn new(
        source_ty: WireTerm,
        target: WireTerm,
        target_ty: WireTerm,
        interface_alpha: Fingerprint,
        output_alpha: Fingerprint,
    ) -> Artifact {
        Artifact {
            sections: Sections::Eager { source_ty, target, target_ty },
            interface_alpha,
            output_alpha,
        }
    }

    /// An artifact over a lazily loaded blob (fingerprints from its
    /// header, sections decoded on demand).
    pub(crate) fn lazy(
        sections: LazySections,
        interface_alpha: Fingerprint,
        output_alpha: Fingerprint,
    ) -> Artifact {
        Artifact { sections: Sections::Lazy(sections), interface_alpha, output_alpha }
    }

    /// Whether the sections are still on disk (nothing decoded until
    /// accessed).
    pub fn is_lazy(&self) -> bool {
        matches!(self.sections, Sections::Lazy(_))
    }

    /// The unit's inferred CC type — its exported interface.
    ///
    /// # Errors
    ///
    /// On a lazily loaded artifact whose blob rotted on disk, the
    /// corruption detected at first decode (the blob has already been
    /// invalidated and deleted by the store).
    pub fn source_ty(&self) -> Result<WireTerm, String> {
        match &self.sections {
            Sections::Eager { source_ty, .. } => Ok(source_ty.clone()),
            Sections::Lazy(lazy) => lazy.section(0),
        }
    }

    /// The closure-converted CC-CC term.
    ///
    /// # Errors
    ///
    /// As for [`Artifact::source_ty`].
    pub fn target(&self) -> Result<WireTerm, String> {
        match &self.sections {
            Sections::Eager { target, .. } => Ok(target.clone()),
            Sections::Lazy(lazy) => lazy.section(1),
        }
    }

    /// The translation of the interface (the type the target checks at).
    ///
    /// # Errors
    ///
    /// As for [`Artifact::source_ty`].
    pub fn target_ty(&self) -> Result<WireTerm, String> {
        match &self.sections {
            Sections::Eager { target_ty, .. } => Ok(target_ty.clone()),
            Sections::Lazy(lazy) => lazy.section(2),
        }
    }

    /// The encoded size of the CC-CC term in words — from the section
    /// table on a lazy artifact, so reporting it never forces a decode.
    pub fn target_words(&self) -> usize {
        match &self.sections {
            Sections::Eager { target, .. } => target.len(),
            Sections::Lazy(lazy) => lazy.section_words(1),
        }
    }

    /// The fingerprint of the exported interface; dependents fold this
    /// into their own query keys, giving early cutoff when an import's
    /// body changes but its interface does not. α-invariant:
    /// recompiling an import whose inferred type merely re-freshened a
    /// binder (capture-avoidance subscripts come from a global counter)
    /// must not cascade into dependents.
    pub fn interface_fingerprint(&self) -> Fingerprint {
        self.interface_alpha
    }

    /// The α-invariant fingerprint of the *whole output* — interface ⊕
    /// target term ⊕ target type ([`cccc_target::wire::fingerprint_alpha`]).
    /// This is the artifact query's early-cutoff output: the downstream
    /// verified query keys on it, so check and verify re-run only when a
    /// recompile actually changed what was produced (α-invariantly —
    /// recompiles freshen binders differently every time).
    pub fn output_fingerprint(&self) -> Fingerprint {
        self.output_alpha
    }
}

/// Hit/miss/invalidation counters for the artifact table (disk-tier
/// counters live in [`cccc_core::pipeline::StoreStats`]). Every lookup
/// counts exactly one of `hits`, `misses` and `invalidations`; one that
/// had to wait also counts in `coalesced`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a settled entry for the key — including an
    /// α-twin's, after waiting on its claim.
    pub hits: u64,
    /// Lookups that found no entry for the key, the unit having no
    /// earlier entry under another key. The store may still answer such
    /// a lookup — compare with `StoreStats::disk_hits` (surfaced per
    /// build through `BuildReport::store`).
    pub misses: u64,
    /// Lookups that found no entry for the key while the unit's latest
    /// entry sits under another key (the unit or an interface it depends
    /// on changed).
    pub invalidations: u64,
    /// Lookups that waited on another worker's claim of the same key (an
    /// α-twin being loaded or compiled) instead of loading or compiling
    /// it again.
    pub coalesced: u64,
}

impl CacheStats {
    /// The activity between the `earlier` snapshot and this one.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            invalidations: self.invalidations - earlier.invalidations,
            coalesced: self.coalesced - earlier.coalesced,
        }
    }
}

/// Which tier answered a unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// The session's artifact table: an earlier build compiled or loaded
    /// the artifact, or this build compiled it for an α-twin.
    Memory,
    /// The persistent on-disk store (possibly written by another
    /// process), read in this build — by the unit or by an α-twin whose
    /// claim it waited on.
    Disk,
}

/// One artifact key's state.
enum Slot {
    /// Loaded or compiled, with the tier it came from.
    Ready(Arc<Artifact>, CacheTier),
    /// A worker holds the key's [`Claim`].
    InFlight,
}

#[derive(Default)]
struct Table {
    slots: HashMap<Fingerprint, Slot>,
    /// Each unit name's latest key: the one it was last answered from.
    latest: HashMap<String, Fingerprint>,
    stats: CacheStats,
}

/// The artifact table: internally synchronized, shared by a build's
/// workers.
#[derive(Default)]
pub(crate) struct ArtifactCache {
    table: Mutex<Table>,
    /// Signalled whenever a claim ends, published or not.
    claim_ended: Condvar,
}

/// What [`ArtifactCache::claim`] found under a key.
pub(crate) enum Lookup<'a> {
    /// A settled entry whose verdict is known: the unit is answered.
    Ready(Arc<Artifact>, CacheTier),
    /// The caller owns the key now. `prior` is the settled entry the
    /// claim replaced because its verdict was unknown.
    Claimed { claim: Claim<'a>, prior: Option<(Arc<Artifact>, CacheTier)> },
}

/// Ownership of one key until [`Claim::publish`]; dropping the claim
/// unpublished clears the key and wakes its waiters.
pub(crate) struct Claim<'a> {
    cache: &'a ArtifactCache,
    unit: &'a str,
    key: Fingerprint,
}

impl ArtifactCache {
    fn lock(&self) -> MutexGuard<'_, Table> {
        // Every update under the lock is one insert, removal or counter
        // bump, so the table stays consistent even if a holder panicked.
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up for `unit`, waiting out any other worker's claim
    /// on it. A `Ready` entry answers when `verdict_known` holds for its
    /// artifact; otherwise — or with no entry — the caller claims the
    /// key.
    pub(crate) fn claim<'a>(
        &'a self,
        unit: &'a str,
        key: Fingerprint,
        verdict_known: impl Fn(&Artifact) -> bool,
    ) -> Lookup<'a> {
        let mut guard = self.lock();
        let mut waited = false;
        while let Some(Slot::InFlight) = guard.slots.get(&key) {
            if !waited {
                guard.stats.coalesced += 1;
                waited = true;
            }
            guard = self.claim_ended.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        let table = &mut *guard;
        let prior = match table.slots.get(&key) {
            Some(Slot::Ready(artifact, tier)) => {
                table.stats.hits += 1;
                let found = (Arc::clone(artifact), *tier);
                if verdict_known(artifact) {
                    table.latest.insert(unit.to_owned(), key);
                    return Lookup::Ready(found.0, found.1);
                }
                Some(found)
            }
            _ if table.latest.get(unit).is_some_and(|latest| *latest != key) => {
                table.stats.invalidations += 1;
                None
            }
            _ => {
                table.stats.misses += 1;
                None
            }
        };
        table.slots.insert(key, Slot::InFlight);
        Lookup::Claimed { claim: Claim { cache: self, unit, key }, prior }
    }

    /// Ends a build: keeps only each unit name's latest key and files
    /// every entry left under [`CacheTier::Memory`] for the next build.
    pub(crate) fn finish_build(&self) {
        let mut guard = self.lock();
        let table = &mut *guard;
        let live: HashSet<Fingerprint> = table.latest.values().copied().collect();
        table.slots.retain(|key, slot| match slot {
            Slot::Ready(_, tier) if live.contains(key) => {
                *tier = CacheTier::Memory;
                true
            }
            _ => false,
        });
    }

    /// A snapshot of the counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Drops every entry and resets the counters (used to measure cold
    /// builds). The store, if any, is untouched.
    pub(crate) fn clear(&mut self) {
        *self.table.get_mut().unwrap_or_else(PoisonError::into_inner) = Table::default();
    }
}

impl Claim<'_> {
    /// Settles the key on `artifact`, answered from `tier`. Call only
    /// once the artifact's verdict is recorded: waiters take a published
    /// entry as final.
    pub(crate) fn publish(self, artifact: Arc<Artifact>, tier: CacheTier) {
        let mut table = self.cache.lock();
        table.slots.insert(self.key, Slot::Ready(artifact, tier));
        table.latest.insert(self.unit.to_owned(), self.key);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut table = self.cache.lock();
        if let Some(Slot::InFlight) = table.slots.get(&self.key) {
            table.slots.remove(&self.key);
        }
        drop(table);
        self.cache.claim_ended.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_target::builder as t;

    fn artifact(term: &cccc_target::Term) -> Arc<Artifact> {
        let wire = cccc_target::wire::encode(term);
        Arc::new(Artifact::new(
            wire.clone(),
            wire.clone(),
            wire.clone(),
            wire.fingerprint(),
            wire.fingerprint(),
        ))
    }

    fn fp(word: u64) -> Fingerprint {
        Fingerprint::of_words(&[word])
    }

    /// Claims `key` for `unit`, which must find no settled entry, and
    /// publishes `artifact` from `tier`.
    fn settle(cache: &ArtifactCache, unit: &str, key: Fingerprint, tt: bool, tier: CacheTier) {
        let term = if tt { t::tt() } else { t::ff() };
        match cache.claim(unit, key, |_| true) {
            Lookup::Claimed { claim, .. } => claim.publish(artifact(&term), tier),
            Lookup::Ready(..) => panic!("`{unit}` found a settled entry"),
        }
    }

    /// The settled entry under `key`, if any; a claim taken instead is
    /// dropped unpublished.
    fn ready(cache: &ArtifactCache, unit: &str, key: Fingerprint) -> Option<CacheTier> {
        match cache.claim(unit, key, |_| true) {
            Lookup::Ready(_, tier) => Some(tier),
            Lookup::Claimed { .. } => None,
        }
    }

    #[test]
    fn lookups_distinguish_hit_miss_and_invalidation() {
        let cache = ArtifactCache::default();
        settle(&cache, "m", fp(1), true, CacheTier::Memory);
        assert_eq!(ready(&cache, "m", fp(1)), Some(CacheTier::Memory));
        assert_eq!(ready(&cache, "m", fp(2)), None, "m's latest entry is under another key");
        assert_eq!(ready(&cache, "n", fp(2)), None, "n has no entry at all");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (1, 2, 1));
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.since(&CacheStats { hits: 1, ..CacheStats::default() }).hits, 0);
    }

    #[test]
    fn finished_builds_keep_each_names_latest_key_in_the_memory_tier() {
        let cache = ArtifactCache::default();
        settle(&cache, "m", fp(1), true, CacheTier::Memory);
        cache.finish_build();
        settle(&cache, "m", fp(2), false, CacheTier::Memory);
        cache.finish_build();
        assert_eq!(ready(&cache, "m", fp(1)), None, "the stale entry was dropped");
        let Lookup::Ready(hit, tier) = cache.claim("m", fp(2), |_| true) else {
            panic!("the latest entry survives")
        };
        assert_eq!(tier, CacheTier::Memory);
        let decoded = cccc_target::wire::decode(&hit.target().unwrap()).unwrap();
        assert!(matches!(decoded, cccc_target::Term::BoolLit(false)));

        // α-twins share one entry, kept while either name's latest key
        // is on it.
        settle(&cache, "a", fp(3), true, CacheTier::Memory);
        assert_eq!(ready(&cache, "b", fp(3)), Some(CacheTier::Memory));
        settle(&cache, "a", fp(4), true, CacheTier::Memory);
        cache.finish_build();
        assert_eq!(ready(&cache, "b", fp(3)), Some(CacheTier::Memory));
    }

    #[test]
    fn disk_loads_answer_twins_from_disk_then_move_to_memory() {
        let cache = ArtifactCache::default();
        settle(&cache, "a", fp(5), true, CacheTier::Disk);
        assert_eq!(ready(&cache, "b", fp(5)), Some(CacheTier::Disk), "the twin reports the disk");
        cache.finish_build();
        assert_eq!(ready(&cache, "a", fp(5)), Some(CacheTier::Memory));
    }

    #[test]
    fn entries_with_unknown_verdicts_are_claimed() {
        let cache = ArtifactCache::default();
        settle(&cache, "m", fp(6), true, CacheTier::Memory);
        match cache.claim("m", fp(6), |_| false) {
            Lookup::Claimed { prior: Some((_, CacheTier::Memory)), .. } => {}
            _ => panic!("an unknown verdict claims the key, handing over the entry"),
        }
        assert_eq!(cache.stats().hits, 1, "the artifact itself was found");
        assert_eq!(ready(&cache, "m", fp(6)), None, "the unpublished claim cleared the key");
    }

    #[test]
    fn in_flight_guards_deduplicate_and_count_coalesced_waits() {
        let cache = ArtifactCache::default();
        let Lookup::Claimed { claim, .. } = cache.claim("a", fp(7), |_| true) else {
            panic!("an empty table is claimed")
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ready(&cache, "b", fp(7)));
            while cache.stats().coalesced == 0 {
                std::thread::yield_now();
            }
            claim.publish(artifact(&t::tt()), CacheTier::Disk);
            assert_eq!(waiter.join().unwrap(), Some(CacheTier::Disk));
        });
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.coalesced), (1, 1, 1));
    }

    #[test]
    fn a_dropped_claim_wakes_waiters_to_claim_for_themselves() {
        let cache = ArtifactCache::default();
        let Lookup::Claimed { claim, .. } = cache.claim("a", fp(8), |_| true) else {
            panic!("an empty table is claimed")
        };
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match cache.claim("b", fp(8), |_| true) {
                Lookup::Claimed { claim, prior: None } => {
                    claim.publish(artifact(&t::tt()), CacheTier::Memory);
                    true
                }
                _ => false,
            });
            while cache.stats().coalesced == 0 {
                std::thread::yield_now();
            }
            drop(claim);
            assert!(waiter.join().unwrap(), "the waiter claimed the cleared key");
        });
        assert_eq!(ready(&cache, "a", fp(8)), Some(CacheTier::Memory));
    }

    #[test]
    fn clear_empties_cache_and_counters() {
        let mut cache = ArtifactCache::default();
        settle(&cache, "m", Fingerprint::default(), true, CacheTier::Memory);
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(ready(&cache, "m", Fingerprint::default()), None);
    }

    #[test]
    fn fresh_artifacts_answer_every_accessor_in_memory() {
        let wire = cccc_target::wire::encode(&t::tt());
        let a = Artifact::new(
            wire.clone(),
            wire.clone(),
            wire.clone(),
            Fingerprint::of_words(&[5]),
            Fingerprint::of_words(&[6]),
        );
        assert!(!a.is_lazy());
        assert_eq!(a.interface_fingerprint(), Fingerprint::of_words(&[5]));
        assert_eq!(a.output_fingerprint(), Fingerprint::of_words(&[6]));
        assert_eq!(a.target_words(), wire.len());
        assert!(a.source_ty().is_ok() && a.target().is_ok() && a.target_ty().is_ok());
    }
}
