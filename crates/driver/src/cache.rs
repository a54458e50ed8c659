//! The fingerprint-keyed artifact cache: an in-memory tier, optionally
//! backed by the persistent on-disk tier.
//!
//! A compiled unit's artifact is fully determined by its *artifact
//! query key* ([`crate::query::artifact_key`]): the α-invariant
//! fingerprint of its source, the output-affecting compiler options,
//! and the interface fingerprints of its transitive imports (a unit is
//! compiled against interfaces only — §5.2 separate compilation — so
//! import *bodies* are deliberately absent). The cache maps unit names
//! to `(key, artifact)`; a build whose recomputed key matches reuses
//! the artifact, and the downstream verified query decides — against
//! the artifact's *output* fingerprint — whether check and verify need
//! to re-run at all.
//!
//! Lookups are **two-tier**: the in-memory map answers first; on a miss
//! (or a stale entry) an attached [`ArtifactStore`] is consulted by the
//! same fingerprint, and a valid blob is promoted into memory. Compiles
//! **write through**: [`ArtifactCache::insert`] records the artifact in
//! memory and persists it to the store, so the *next process* starts
//! warm. Store problems never fail a lookup — a corrupt or version-skewed
//! blob is just a miss (see [`crate::store`]).
//!
//! Disk loads are deduplicated with per-fingerprint **in-flight
//! guards**: α-equivalent units on different workers share one
//! content-addressed blob, and without the guard each would read and
//! decode it separately. The session's workers run the protocol —
//! [`ArtifactCache::begin_disk_load`] wins the right to read,
//! everyone else records a coalesced wait ([`CacheStats::coalesced`])
//! and picks the promotion up when the winner finishes. The store
//! itself is shared as an [`Arc`] ([`ArtifactCache::store_shared`]) so
//! the file read happens *outside* the session's cache lock.
//!
//! Artifacts are wire-encoded ([`cccc_target::wire`]) and shared behind
//! [`Arc`], so cache reads hand workers cheap clones across threads.

use crate::store::{ArtifactStore, LazySections};
use cccc_core::pipeline::StoreStats;
use cccc_util::wire::{Fingerprint, WireTerm};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// Hit/miss/invalidation counters for the artifact cache's memory tier
/// (disk-tier counters live in [`StoreStats`]).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a fingerprint-matching in-memory artifact.
    pub hits: u64,
    /// Lookups with no *memory-tier* entry for the unit. The promotion
    /// map or the disk store may still answer such a lookup — compare
    /// with [`StoreStats::disk_hits`] (surfaced per build through
    /// `BuildReport::store`) to see how many of these the persistent
    /// tier absorbed.
    pub misses: u64,
    /// Lookups whose memory entry existed but carried a stale fingerprint
    /// (the unit or an interface it depends on changed).
    pub invalidations: u64,
    /// Lookups that waited on another worker's in-flight disk load of
    /// the same fingerprint instead of reading the blob again
    /// (α-equivalent units racing on one content-addressed blob).
    pub coalesced: u64,
}

/// Which tier answered a cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory map (this `Session` compiled or loaded it earlier).
    Memory,
    /// The persistent on-disk store (possibly written by another
    /// process); the artifact was promoted into memory on the way out.
    Disk,
}

/// A two-tier artifact cache: an in-memory map keyed by unit name and
/// validated by input fingerprint, optionally backed by a persistent
/// content-addressed [`ArtifactStore`].
#[derive(Default, Debug)]
pub struct ArtifactCache {
    entries: HashMap<String, (Fingerprint, Arc<Artifact>)>,
    /// Disk loads promoted by *fingerprint*: the store is
    /// content-addressed, so α-equivalent units (same source up to
    /// binder names, same options, same import interfaces) share one
    /// blob — this map makes the second such unit a memory answer
    /// instead of a second file read. Populated only from disk loads;
    /// entries keep their disk origin for diagnostics.
    promoted: HashMap<Fingerprint, Arc<Artifact>>,
    /// Fingerprints some worker is currently loading from disk (outside
    /// the cache lock). Other workers wanting the same fingerprint wait
    /// on the session's condvar instead of issuing a duplicate read.
    in_flight: HashSet<Fingerprint>,
    stats: CacheStats,
    store: Option<Arc<ArtifactStore>>,
}

impl ArtifactCache {
    /// An empty cache with no disk tier.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// An empty memory tier over the given persistent store.
    pub fn with_store(store: ArtifactStore) -> ArtifactCache {
        ArtifactCache { store: Some(Arc::new(store)), ..ArtifactCache::default() }
    }

    /// The persistent store, if one is attached.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_deref()
    }

    /// A shared handle to the persistent store, so callers can perform
    /// file reads *outside* whatever lock guards this cache (the store
    /// is internally synchronized).
    pub fn store_shared(&self) -> Option<Arc<ArtifactStore>> {
        self.store.clone()
    }

    /// Disk-tier counters (all-zero when no store is attached). Activity
    /// counters only — no directory scan; use
    /// [`ArtifactCache::store_stats`] for sizes.
    pub fn store_counters(&self) -> StoreStats {
        self.store.as_deref().map(ArtifactStore::counters).unwrap_or_default()
    }

    /// Disk-tier counters plus current store sizes (`None` when no store
    /// is attached).
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_deref().map(ArtifactStore::stats)
    }

    /// The memory tiers only — the named-entry map, then earlier disk
    /// promotions by fingerprint — counting the outcome (hit, stale
    /// invalidation, or miss). A promotion-map answer is re-inserted
    /// under the unit's name and reports [`CacheTier::Disk`]: the
    /// distinction callers care about is where the artifact ultimately
    /// came from. Does **not** consult the store; callers that want the
    /// disk tier run the in-flight-guard protocol (the session) or call
    /// [`ArtifactCache::lookup`] (synchronous convenience).
    pub fn lookup_memory(
        &mut self,
        unit: &str,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<Artifact>, CacheTier)> {
        match self.entries.get(unit) {
            Some((cached, artifact)) if *cached == fingerprint => {
                self.stats.hits += 1;
                return Some((Arc::clone(artifact), CacheTier::Memory));
            }
            Some(_) => self.stats.invalidations += 1,
            None => self.stats.misses += 1,
        }
        self.promotion(unit, fingerprint)
    }

    /// The promotion map alone, *without* counting a lookup — the
    /// re-check a coalesced waiter performs after the winning loader
    /// finishes (its miss was already counted by
    /// [`ArtifactCache::lookup_memory`]).
    pub fn promotion(
        &mut self,
        unit: &str,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<Artifact>, CacheTier)> {
        let artifact = Arc::clone(self.promoted.get(&fingerprint)?);
        self.entries.insert(unit.to_owned(), (fingerprint, Arc::clone(&artifact)));
        Some((artifact, CacheTier::Disk))
    }

    /// Claims the right to load `fingerprint` from disk. Returns `false`
    /// when another worker's load is already in flight — the caller
    /// should record a coalesced wait and sleep on the session condvar.
    pub fn begin_disk_load(&mut self, fingerprint: Fingerprint) -> bool {
        self.in_flight.insert(fingerprint)
    }

    /// Whether a disk load of `fingerprint` is currently in flight.
    pub fn disk_load_in_flight(&self, fingerprint: Fingerprint) -> bool {
        self.in_flight.contains(&fingerprint)
    }

    /// Releases the in-flight guard taken by
    /// [`ArtifactCache::begin_disk_load`], promoting the loaded artifact
    /// (if the read produced one) for every waiter to pick up.
    pub fn finish_disk_load(&mut self, fingerprint: Fingerprint, artifact: Option<&Arc<Artifact>>) {
        self.in_flight.remove(&fingerprint);
        if let Some(artifact) = artifact {
            self.promoted.insert(fingerprint, Arc::clone(artifact));
        }
    }

    /// Counts one coalesced wait (a lookup answered by another worker's
    /// in-flight disk load instead of a duplicate read).
    pub fn note_coalesced(&mut self) {
        self.stats.coalesced += 1;
    }

    /// Looks up the artifact for `unit`, valid only under `fingerprint`:
    /// memory first, then earlier disk promotions by fingerprint, then
    /// the store itself — synchronously, with the file read performed
    /// inline (the session's workers use the in-flight-guard protocol
    /// instead, so concurrent α-equivalent lookups read the blob once).
    /// A disk hit is promoted into memory both under the unit's name and
    /// under its fingerprint, so subsequent lookups — including ones for
    /// *other* units with α-equivalent inputs — are answered without
    /// touching the file system again.
    pub fn lookup(
        &mut self,
        unit: &str,
        fingerprint: Fingerprint,
    ) -> Option<(Arc<Artifact>, CacheTier)> {
        if let Some(found) = self.lookup_memory(unit, fingerprint) {
            return Some(found);
        }
        let store = self.store.as_deref()?;
        let artifact = Arc::new(store.load(fingerprint)?);
        self.entries.insert(unit.to_owned(), (fingerprint, Arc::clone(&artifact)));
        self.promoted.insert(fingerprint, Arc::clone(&artifact));
        Some((artifact, CacheTier::Disk))
    }

    /// Records the artifact for `unit` under its input fingerprint,
    /// replacing any stale memory entry and writing through to the store
    /// (when one is attached) so later *processes* can reuse it.
    pub fn insert(&mut self, unit: &str, fingerprint: Fingerprint, artifact: Arc<Artifact>) {
        let rendered = self.store.is_some().then(|| crate::store::render_blob(&artifact)).flatten();
        self.insert_prerendered(unit, fingerprint, artifact, rendered);
    }

    /// [`ArtifactCache::insert`] with the write-through blob already
    /// rendered by [`crate::store::render_blob`]. The driver's workers
    /// render on their own thread *before* taking the session's cache
    /// lock, so the transcode — the dominant cost of a write-through —
    /// never serializes other workers. `rendered` must be `None` only
    /// when no store is attached or rendering failed (the latter is
    /// counted as a write error).
    pub(crate) fn insert_prerendered(
        &mut self,
        unit: &str,
        fingerprint: Fingerprint,
        artifact: Arc<Artifact>,
        rendered: Option<Vec<u64>>,
    ) {
        if let Some(store) = self.store.as_deref() {
            store.save_rendered(fingerprint, rendered.as_deref());
        }
        self.entries.insert(unit.to_owned(), (fingerprint, artifact));
    }

    /// Number of cached units in the memory tier.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A snapshot of the memory-tier counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every *memory* entry and resets the memory counters (used
    /// to measure cold builds). The disk tier is deliberately untouched:
    /// use [`ArtifactCache::store`] + [`ArtifactStore::wipe`] to make
    /// the next build cold on disk too.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.promoted.clear();
        self.in_flight.clear();
        self.stats = CacheStats::default();
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

    #[test]
    fn lookups_distinguish_hit_miss_and_invalidation() {
        let mut cache = ArtifactCache::new();
        let fp1 = Fingerprint::of_words(&[1]);
        let fp2 = Fingerprint::of_words(&[2]);
        assert!(cache.lookup("m", fp1).is_none());
        cache.insert("m", fp1, artifact(&t::tt()));
        assert!(cache.lookup("m", fp1).is_some());
        assert!(cache.lookup("m", fp2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_replaces_stale_entries() {
        let mut cache = ArtifactCache::new();
        let fp1 = Fingerprint::of_words(&[1]);
        let fp2 = Fingerprint::of_words(&[2]);
        cache.insert("m", fp1, artifact(&t::tt()));
        cache.insert("m", fp2, artifact(&t::ff()));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("m", fp1).is_none());
        let (hit, tier) = cache.lookup("m", fp2).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        let decoded = cccc_target::wire::decode(&hit.target().unwrap()).unwrap();
        assert!(matches!(decoded, cccc_target::Term::BoolLit(false)));
    }

    #[test]
    fn disk_tier_answers_memory_misses_and_promotes() {
        let dir = std::env::temp_dir().join(format!("cccc-cache-two-tier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::ArtifactStore::open(&dir).unwrap();
        let mut cache = ArtifactCache::with_store(store);
        let fp = Fingerprint::of_words(&[11]);
        // A well-formed artifact (each section in its own language): the
        // store transcodes sections on write-through, so — unlike the
        // memory-only tests above — the fields must decode.
        let stored = Arc::new(Artifact::new(
            cccc_source::wire::encode(&cccc_source::builder::bool_ty()),
            cccc_target::wire::encode(&t::tt()),
            cccc_target::wire::encode(&t::bool_ty()),
            Fingerprint::of_words(&[3]),
            Fingerprint::of_words(&[4]),
        ));

        // A miss in both tiers.
        assert!(cache.lookup("m", fp).is_none());
        assert_eq!(cache.store_counters().disk_misses, 1);

        // Write-through on insert …
        cache.insert("m", fp, stored);
        assert_eq!(cache.store_counters().write_throughs, 1);

        // … memory answers while the entry is live …
        let (_, tier) = cache.lookup("m", fp).unwrap();
        assert_eq!(tier, CacheTier::Memory);

        // … and after the memory tier is cleared, the disk tier answers
        // and promotes the artifact back into memory.
        cache.clear();
        let (hit, tier) = cache.lookup("m", fp).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert!(hit.is_lazy(), "disk hits defer their section decodes");
        let decoded = cccc_target::wire::decode(&hit.target().unwrap()).unwrap();
        assert!(matches!(decoded, cccc_target::Term::BoolLit(true)));
        assert_eq!(
            hit.output_fingerprint(),
            Fingerprint::of_words(&[4]),
            "output fp survives the disk"
        );
        assert_eq!(cache.store_counters().disk_hits, 1);
        let (_, tier) = cache.lookup("m", fp).unwrap();
        assert_eq!(tier, CacheTier::Memory, "the disk hit was promoted");

        // Wiping the store makes a cleared cache fully cold.
        cache.store().unwrap().wipe().unwrap();
        cache.clear();
        assert!(cache.lookup("m", fp).is_none());
        assert_eq!(cache.store_stats().unwrap().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_flight_guards_deduplicate_and_count_coalesced_waits() {
        let mut cache = ArtifactCache::new();
        let fp = Fingerprint::of_words(&[21]);
        assert!(cache.begin_disk_load(fp), "first claimant wins the load");
        assert!(!cache.begin_disk_load(fp), "second claimant must wait");
        assert!(cache.disk_load_in_flight(fp));
        cache.note_coalesced();

        // The winner finishes with an artifact: waiters find it in the
        // promotion map without another read (and without re-counting a
        // lookup outcome).
        let loaded = artifact(&t::tt());
        cache.finish_disk_load(fp, Some(&loaded));
        assert!(!cache.disk_load_in_flight(fp));
        let (_, tier) = cache.promotion("waiter", fp).unwrap();
        assert_eq!(tier, CacheTier::Disk, "disk origin survives the coalesced hand-off");
        let stats = cache.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);

        // A load that found nothing releases the guard and promotes
        // nothing.
        let fp2 = Fingerprint::of_words(&[22]);
        assert!(cache.begin_disk_load(fp2));
        cache.finish_disk_load(fp2, None);
        assert!(!cache.disk_load_in_flight(fp2));
        assert!(cache.promotion("waiter", fp2).is_none());
    }

    #[test]
    fn clear_empties_cache_and_counters() {
        let mut cache = ArtifactCache::new();
        cache.insert("m", Fingerprint::default(), artifact(&t::tt()));
        let _ = cache.lookup("m", Fingerprint::default());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
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
