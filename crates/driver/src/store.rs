//! The persistent, content-addressed artifact store: warm rebuilds that
//! survive process restarts.
//!
//! The in-memory artifact table ([`crate::cache`]) dies with its
//! [`Session`](crate::session::Session), so every new process used to
//! pay the full cold-build cost. This module is the second tier: compiled
//! artifacts are written through to an on-disk store keyed by their
//! *artifact query key* (source ⊕ options ⊕ import interfaces — all
//! computed α-invariantly and process-stably, see
//! [`cccc_source::wire::fingerprint_alpha`] and [`crate::query`]), and a
//! fresh process whose recomputed keys match simply loads the blobs back.
//!
//! # Blob format (v3)
//!
//! One file per artifact key, named `<fingerprint:032x>.art`, holding
//! little-endian `u64` words:
//!
//! ```text
//! ┌────────────────── header (21 words) ───────────────────┐
//! │ magic │ format version │ header checksum (2 words)     │
//! │ interface α-fingerprint (2 words)                      │
//! │ output α-fingerprint (2 words, early-cutoff output)    │
//! │ section count (= 3)                                    │
//! │ 3 × section entry: offset, length, checksum (2 words)  │
//! ├───────────────── sections (contiguous) ────────────────┤
//! │ portable wire words of the CC interface                │
//! │ portable wire words of the CC-CC term                  │
//! │ portable wire words of the CC-CC type                  │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! The header checksum covers the header body (fingerprints, count, and
//! the section table); each table entry carries the offset (in words,
//! from the start of the file), length, and checksum of its own section.
//! A load therefore reads and verifies only the 168-byte header; section
//! bodies stay on disk behind the open file handle and are `pread` and
//! checksummed **lazily**, at first access (`LazySections`) — a warm
//! rebuild whose verified records answer everything never touches a term
//! payload at all.
//!
//! Sections are **portable** wire buffers ([`cccc_source::wire::encode_portable`],
//! [`cccc_target::wire::encode_portable`]): each carries a relocatable
//! symbol table mapping local ids to `(base name, disambiguator)` pairs
//! that re-intern on load, because raw wire symbol ids are only stable
//! within the writing process. v2 blobs (whole-payload checksum, no
//! section table) read as a format version skew — an invalid entry, so a
//! miss — and the recompile's write-through rewrites them in v3.
//!
//! # Verified-phase records
//!
//! Next to the blobs live `<fingerprint:032x>.vfy` records, keyed by the
//! *verify query key* ([`crate::query::verify_key`]): eight words —
//! the same magic/version plus a whole-payload checksum over a four-word
//! payload holding the check key it certifies
//! ([`crate::query::check_key`]) and the check phase's output
//! fingerprint. A record's existence says "an artifact with this source,
//! these import interfaces, this output, and these options has passed
//! check + verify before", so a restarted process skips both phases on
//! unchanged units. Verified-record traffic is counted apart from blob
//! traffic ([`StoreStats::verified_hits`] / [`StoreStats::verified_writes`])
//! and is *not* subject to the [`FaultPlan`] — the plan's positional
//! counters target artifact blobs, and a lost or corrupt record merely
//! re-runs two phases.
//!
//! # Garbage collection
//!
//! The store grows without bound unless asked not to:
//! [`ArtifactStore::gc`] sweeps it down to a [`StoreBudget`]. Keys
//! reachable from the current graph (the caller's *live* set — artifact
//! keys and verify keys alike, computed by the session from its last
//! build) are protected; everything else is evicted least-recently-used
//! first, by the store's recorded access order. Only if the live set
//! alone exceeds the budget are live entries evicted too (the budget is
//! a hard bound), again LRU-first. Eviction is a plain `unlink`, which
//! is safe against concurrent readers: a load that already opened the
//! blob keeps reading its sections from the open handle; a load that
//! opens after the unlink is an ordinary miss.
//!
//! # Failure semantics
//!
//! The store **never fails a build**. A missing blob is a miss; a
//! truncated, checksum-failing, version-skewed, or otherwise corrupt blob
//! is an *invalid entry* and also a miss (the counters in
//! [`StoreStats`] distinguish the cases); an I/O error while writing is
//! counted and swallowed. A lazily-loaded section that turns out corrupt
//! at first decode is the same invalid entry, just detected later — the
//! blob is deleted and the session degrades to a recompile. Deleting the
//! store directory (or calling [`ArtifactStore::wipe`]) merely makes the
//! next build cold.
//!
//! Faults are classified before they degrade: **transient** ones — an
//! interrupted open, a failed `pread`, a torn write — are retried a
//! bounded number of times with deterministic jittered backoff
//! ([`cccc_util::cancel::Backoff`]) before being accepted as a miss or
//! write error, while **permanent** ones (corruption) are never retried.
//! Retry traffic is visible in [`StoreStats::retries`] /
//! [`StoreStats::retry_successes`] and as `store.retry` trace events
//! (sharing `store.corrupt`'s structured `path=… reason=… attempt=N`
//! payload).
//!
//! All methods take `&self`: the store synchronizes internally, so a
//! session's workers share one instance and read and write it without
//! holding any session lock.

use crate::cache::Artifact;
use cccc_core::pipeline::StoreStats;
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::cancel::{self, Backoff};
use cccc_util::trace;
use cccc_util::wire::{Fingerprint, WireTerm, FORMAT_VERSION};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// First word of every store blob ("ccccart\0", little-endian).
const STORE_MAGIC: u64 = 0x0074_7261_6363_6363;

/// Bytes per stored word.
const WORD_BYTES: usize = 8;

/// Sections in every artifact blob (CC interface, CC-CC term, CC-CC
/// type).
const SECTION_COUNT: usize = 3;

/// First word of the section table (after magic, version, header
/// checksum, the two fingerprints, and the section count).
const SECTION_TABLE_WORD: usize = 9;

/// Words per section-table entry (offset, length, checksum lo/hi).
const SECTION_ENTRY_WORDS: usize = 4;

/// Words in a v3 blob header: the fixed prefix plus the section table.
/// Sections start here.
const HEADER_V3_WORDS: usize = SECTION_TABLE_WORD + SECTION_COUNT * SECTION_ENTRY_WORDS;

/// Words in a verified-record header (magic, version, checksum lo, hi).
const RECORD_HEADER_WORDS: usize = 4;

/// Payload words of a verified-phase record (check key lo/hi, check
/// output lo/hi).
const VERIFIED_PAYLOAD_WORDS: usize = 4;

/// A byte budget for [`ArtifactStore::gc`]: after a sweep the store's
/// blobs and records together occupy at most `max_bytes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreBudget {
    /// The hard upper bound, in bytes, on the store after a sweep.
    pub max_bytes: u64,
}

/// What one [`ArtifactStore::gc`] sweep saw and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries (blobs + verified records) the sweep examined.
    pub scanned: u64,
    /// Their total size in bytes before the sweep.
    pub scanned_bytes: u64,
    /// Entries protected by the caller's live set.
    pub live: u64,
    /// Entries deleted.
    pub evicted: u64,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Bytes still in the store after the sweep.
    pub retained_bytes: u64,
}

/// A deterministic fault plan for the store's file-system operations,
/// used by the fault-injection suites to prove the failure semantics
/// above: any storage fault degrades to a cache miss — never a wrong
/// answer, never a panic.
///
/// Each field targets the Nth call (0-based) of one operation kind since
/// the plan was installed ([`ArtifactStore::set_faults`] resets the
/// counters). The four read-side faults share one counter — each load
/// *attempt* claims a single position, whatever mix of open, `pread`,
/// and truncation faults is armed — so one plan can fail the open at
/// position 0 and truncate position 2. Because transient faults are
/// retried and a retry claims the *next* position, a single injected
/// `fail_read` or `fail_pread` is recovered on the following attempt:
/// the load ends in a disk hit, counted under
/// [`StoreStats::retry_successes`]. Corruption faults (`short_read`,
/// `truncate_table`) are permanent and never retried. Only artifact-blob
/// operations consume positions; verified-record I/O is deliberately
/// outside the plan (see the module docs).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the Nth load's file open with an injected I/O error
    /// (EIO-like); the load is a plain miss.
    pub fail_read: Option<u64>,
    /// Fail the Nth load's header `pread` with an injected I/O error;
    /// like `fail_read`, a plain miss (I/O failures are never blamed on
    /// the blob).
    pub fail_pread: Option<u64>,
    /// Make the Nth load see the file at half its true length (a short
    /// read / torn page): the header's extent checks reject the blob as
    /// an invalid entry.
    pub short_read: Option<u64>,
    /// Make the Nth load see the file truncated in the middle of the
    /// section table: an invalid entry with reason "truncated section
    /// table".
    pub truncate_table: Option<u64>,
    /// Fail the Nth temp-file `fs::write` with an injected I/O error.
    pub fail_write: Option<u64>,
    /// Fail the Nth `fs::rename` with an injected I/O error (the temp
    /// file is cleaned up, as for a real rename failure).
    pub fail_rename: Option<u64>,
}

impl FaultPlan {
    /// Whether any fault is armed.
    pub fn is_armed(&self) -> bool {
        self.fail_read.is_some()
            || self.fail_pread.is_some()
            || self.short_read.is_some()
            || self.truncate_table.is_some()
            || self.fail_write.is_some()
            || self.fail_rename.is_some()
    }
}

/// Per-operation call counters for [`FaultPlan`] matching.
#[derive(Clone, Copy, Default, Debug)]
struct FaultState {
    reads: u64,
    writes: u64,
    renames: u64,
}

fn injected_fault(operation: &str) -> io::Error {
    io::Error::other(format!("injected {operation} fault"))
}

/// Emits a `store.corrupt` or `store.retry` event with the shared
/// structured payload both carry: the blob path, the reason, and the
/// 0-based attempt the fault landed on. Pinned by the `driver_trace`
/// suite — consumers parse `path=… reason=… attempt=N`, so the three
/// fields always appear, in this order, whatever the fault.
fn fault_event(name: &'static str, path: &Path, reason: &str, attempt: u64) {
    trace::event_for(
        &format!("path={} reason={reason} attempt={attempt}", path.display()),
        name,
        &[],
    );
}

/// What one [`ArtifactStore::load`] attempt concluded, steering the
/// retry loop: hits and permanent outcomes (no blob, corruption) return
/// immediately; transient I/O faults are worth another attempt.
enum LoadAttempt {
    /// A valid blob: counted as a disk hit.
    Hit(Box<Artifact>),
    /// No blob for the key, or a corrupt one (already counted, traced,
    /// and deleted) — retrying cannot help.
    Absent,
    /// A transient I/O failure — an interrupted open or a failed header
    /// `pread` — that left the blob untouched on disk. The payload names
    /// the fault for the `store.retry` event.
    Transient(String),
}

/// Counters a store shares with the [`LazySections`] of every artifact
/// it has loaded, so deferred section reads can account their I/O
/// without holding (or even knowing about) the store's state lock. All
/// monotonic; [`ArtifactStore::counters`] folds them into [`StoreStats`].
#[derive(Debug, Default)]
pub(crate) struct SharedCounters {
    bytes_read: AtomicU64,
    sections_decoded: AtomicU64,
    /// Blobs whose corruption was discovered lazily, at first section
    /// decode (counted into [`StoreStats::invalid_entries`]).
    invalid: AtomicU64,
}

/// The store's synchronized interior: activity counters plus the fault
/// plan and its positional state, and the LRU access clock for GC.
#[derive(Default, Debug)]
struct StoreState {
    stats: StoreStats,
    faults: FaultPlan,
    fault_state: FaultState,
    /// Injected latency per blob load, applied *outside* every lock —
    /// the concurrency tests use it to make disk-load overlap
    /// observable even on single-CPU hosts.
    read_delay: Duration,
    /// Monotonic access clock; bumped on every hit or write so
    /// [`ArtifactStore::gc`] can evict least-recently-used first.
    clock: u64,
    /// Last access tick per key (blobs and verified records share the
    /// key space — their fingerprints come from different query domains
    /// and cannot collide).
    access: HashMap<Fingerprint, u64>,
}

impl StoreState {
    fn touch(&mut self, key: Fingerprint) {
        self.clock += 1;
        let tick = self.clock;
        self.access.insert(key, tick);
    }
}

/// A persistent, content-addressed artifact store rooted at a directory.
///
/// Opened with [`ArtifactStore::open`] and normally owned by a session as
/// its disk tier (see
/// [`Session::with_store`](crate::session::Session::with_store)). All
/// methods tolerate corruption and I/O failure by design: the only
/// fallible operations are opening (the directory must be creatable) and
/// wiping.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    state: Mutex<StoreState>,
    shared: Arc<SharedCounters>,
}

/// Process-wide temp-file disambiguator: combined with the process id in
/// the temp name, it keeps concurrent writers — including two store
/// instances in one process sharing a directory — off each other's
/// in-flight files.
static TEMP_SEQUENCE: AtomicU64 = AtomicU64::new(0);

impl ArtifactStore {
    /// Opens (creating if necessary) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore {
            dir,
            state: Mutex::new(StoreState::default()),
            shared: Arc::new(SharedCounters::default()),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn state(&self) -> std::sync::MutexGuard<'_, StoreState> {
        // Tolerate a poisoned lock: the state is counters and an access
        // clock, consistent after any partial update, and panic
        // isolation in the driver means a panicking worker must not
        // wedge every other worker's store access.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Installs `plan` and resets the per-operation fault counters.
    /// `FaultPlan::default()` disarms injection.
    pub fn set_faults(&self, plan: FaultPlan) {
        let mut state = self.state();
        state.faults = plan;
        state.fault_state = FaultState::default();
    }

    /// Injects `delay` of latency into every subsequent blob load,
    /// applied outside all locks — a stand-in for slow media that makes
    /// disk-load concurrency deterministic to test.
    pub fn set_read_delay(&self, delay: Duration) {
        self.state().read_delay = delay;
    }

    /// `fs::write` with the fault plan applied.
    fn write_with_faults(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (n, faults) = {
            let mut state = self.state();
            let n = state.fault_state.writes;
            state.fault_state.writes += 1;
            (n, state.faults)
        };
        if faults.fail_write == Some(n) {
            return Err(injected_fault("write"));
        }
        fs::write(path, bytes)
    }

    /// `fs::rename` with the fault plan applied.
    fn rename_with_faults(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (n, faults) = {
            let mut state = self.state();
            let n = state.fault_state.renames;
            state.fault_state.renames += 1;
            (n, state.faults)
        };
        if faults.fail_rename == Some(n) {
            return Err(injected_fault("rename"));
        }
        fs::rename(from, to)
    }

    /// Counter snapshot, with the size fields (`entries`, `bytes`)
    /// refreshed by scanning the directory for artifact blobs.
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.counters();
        stats.entries = 0;
        stats.bytes = 0;
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "art") {
                    stats.entries += 1;
                    stats.bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        stats
    }

    /// Counter snapshot without the directory scan (used on the per-unit
    /// hot path, where only the activity counters matter). Folds in the
    /// lazily-accounted section reads (`SharedCounters`), so deferred
    /// decodes show up here as they happen.
    pub fn counters(&self) -> StoreStats {
        let mut stats = self.state().stats;
        stats.bytes_read += self.shared.bytes_read.load(Ordering::Relaxed);
        stats.sections_decoded += self.shared.sections_decoded.load(Ordering::Relaxed);
        stats.invalid_entries += self.shared.invalid.load(Ordering::Relaxed);
        stats
    }

    /// Deletes every blob and verified record — and any orphaned temp
    /// file a crashed writer left behind. The next build against this
    /// store is cold.
    ///
    /// # Errors
    ///
    /// Returns the first deletion error (the store stays usable).
    pub fn wipe(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "art" || e == "vfy" || e == "tmp") {
                fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    fn blob_path(&self, fingerprint: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}.art"))
    }

    fn verified_path(&self, fingerprint: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fingerprint}.vfy"))
    }

    /// Loads the artifact stored under `fingerprint`, if a valid blob
    /// exists. Only the header is read and verified here; the three
    /// sections stay on disk behind the returned artifact's file handle
    /// until first access. Corrupt blobs (bad magic,
    /// version skew, failed header checksum, truncation) are counted as
    /// invalid entries, reported as misses, and *deleted* — self-healing,
    /// so the recompile's write-through can put a good blob back in
    /// their place.
    ///
    /// Transient I/O faults — an interrupted open, a failed header
    /// `pread` — are *retried* with a bounded, deterministically
    /// jittered backoff ([`Backoff`], seeded from the key) before the
    /// load gives up as a miss: a flaky read must not cost a warm hit.
    /// Each attempt is counted in [`StoreStats::retries`], traced as
    /// `store.retry`, and — because retries run under the session's
    /// claim on the key — never raced by a sibling load of the same
    /// key. Corruption is permanent and never retried, and a
    /// missing blob returns immediately (cold misses pay no backoff).
    /// A cancelled build stops retrying at once.
    pub fn load(&self, fingerprint: Fingerprint) -> Option<Artifact> {
        let path = self.blob_path(fingerprint);
        // Deterministic per-key jitter: tests replay exact schedules.
        let seed = (fingerprint.0 as u64) ^ ((fingerprint.0 >> 64) as u64);
        let mut backoff = Backoff::new(seed);
        let mut attempt = 0u64;
        loop {
            match self.load_attempt(&path, attempt) {
                LoadAttempt::Hit(artifact) => {
                    let mut state = self.state();
                    state.stats.disk_hits += 1;
                    state.stats.sections_skipped += SECTION_COUNT as u64;
                    if attempt > 0 {
                        // A warm hit the pre-retry store lost to a miss.
                        state.stats.retry_successes += 1;
                    }
                    state.touch(fingerprint);
                    return Some(*artifact);
                }
                LoadAttempt::Absent => return None,
                LoadAttempt::Transient(reason) => {
                    let delay = if cancel::cancelled() { None } else { backoff.next_delay() };
                    let Some(delay) = delay else {
                        // Out of attempts (or cancelled): the transient
                        // fault degrades to the ordinary miss it always
                        // was.
                        self.state().stats.disk_misses += 1;
                        return None;
                    };
                    self.state().stats.retries += 1;
                    fault_event("store.retry", &path, &reason, attempt);
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }

    /// One load attempt: claims one fault-plan read position, reads and
    /// validates the header, and classifies the outcome for [`load`]'s
    /// retry loop. Hit bookkeeping (counters, LRU touch) is the caller's.
    fn load_attempt(&self, path: &Path, attempt: u64) -> LoadAttempt {
        let (position, faults, delay) = {
            let mut state = self.state();
            let n = state.fault_state.reads;
            state.fault_state.reads += 1;
            (n, state.faults, state.read_delay)
        };

        let read_span = trace::span("store.read");
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }

        // Injected open failure: an `EINTR`-shaped transient.
        if faults.fail_read == Some(position) {
            return LoadAttempt::Transient("injected read fault".to_owned());
        }
        let opened = fs::File::open(path).and_then(|file| {
            let len = file.metadata()?.len();
            Ok((file, len))
        });
        let (file, real_len) = match opened {
            Ok(pair) => pair,
            Err(error) if error.kind() == io::ErrorKind::NotFound => {
                // The ordinary cold miss: nothing to retry, no backoff.
                drop(read_span);
                self.state().stats.disk_misses += 1;
                return LoadAttempt::Absent;
            }
            Err(error) => return LoadAttempt::Transient(format!("open failed: {error}")),
        };

        // Injected truncations: the load *sees* a shorter file than is
        // on disk. The header's extent checks reject it exactly as they
        // would a genuinely torn blob, and — like real truncation — the
        // blob is treated as invalid and deleted (the write-through
        // heals it).
        let mut virtual_len = real_len;
        if faults.short_read == Some(position) {
            virtual_len = real_len / 2;
        }
        if faults.truncate_table == Some(position) {
            virtual_len = virtual_len.min(((SECTION_TABLE_WORD + 2) * WORD_BYTES) as u64);
        }

        let header = match self.read_header(&file, real_len, virtual_len, faults, position) {
            Ok(Ok(header)) => header,
            Ok(Err(reason)) => {
                drop(read_span);
                self.invalidate_blob(path, reason, attempt);
                return LoadAttempt::Absent;
            }
            Err(()) => {
                // Real (or injected) I/O failure mid-read: transient,
                // never blamed on the blob.
                return LoadAttempt::Transient("header pread failed".to_owned());
            }
        };

        let lazy = LazySections {
            file,
            path: path.to_path_buf(),
            entries: header.entries,
            cells: Default::default(),
            counters: Arc::clone(&self.shared),
        };
        let artifact = Artifact::lazy(lazy, header.interface_alpha, header.output_alpha);
        drop(read_span);
        LoadAttempt::Hit(Box::new(artifact))
    }

    /// Reads and validates a blob's 21-word header against the (possibly
    /// fault-shortened) file length. `Err(())` is an I/O failure (a
    /// miss); `Ok(Err(reason))` names a corruption (an invalid entry).
    fn read_header(
        &self,
        file: &fs::File,
        real_len: u64,
        virtual_len: u64,
        faults: FaultPlan,
        position: u64,
    ) -> Result<Result<BlobHeader, &'static str>, ()> {
        if !real_len.is_multiple_of(WORD_BYTES as u64) {
            return Ok(Err("length not word-aligned"));
        }
        let virtual_words = (virtual_len / WORD_BYTES as u64) as usize;
        if virtual_words < SECTION_TABLE_WORD {
            return Ok(Err("truncated header"));
        }
        if virtual_words < HEADER_V3_WORDS {
            return Ok(Err("truncated section table"));
        }
        if faults.fail_pread == Some(position) {
            return Err(());
        }
        let mut bytes = [0u8; HEADER_V3_WORDS * WORD_BYTES];
        file.read_exact_at(&mut bytes, 0).map_err(|_| ())?;
        self.shared.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let words: Vec<u64> = bytes
            .chunks_exact(WORD_BYTES)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
            .collect();
        Ok(parse_header(&words, virtual_words))
    }

    /// Counts, traces, and deletes a blob rejected at load time.
    fn invalidate_blob(&self, path: &Path, reason: &str, attempt: u64) {
        self.state().stats.invalid_entries += 1;
        // Surface what was thrown away and why, so an operator watching
        // the trace can tell self-healing from rot.
        fault_event("store.corrupt", path, reason, attempt);
        let _ = fs::remove_file(path);
    }

    /// Writes `artifact` through to disk under `fingerprint`, transcoding
    /// its sections into the portable symbol-relocatable encoding. The
    /// write is atomic (temp file + rename), so a concurrent reader sees
    /// either the whole blob or none of it. Failures are counted, never
    /// raised; an existing blob (the store is content-addressed, so its
    /// payload is necessarily equivalent) is left in place.
    ///
    /// Write and rename failures are transient until proven otherwise:
    /// the whole temp-file + rename sequence is retried under the same
    /// bounded [`Backoff`] as loads (atomicity is per attempt, so a
    /// reader still sees the whole blob or none of it). Only after the
    /// attempt budget is spent does the failure count as a
    /// [`StoreStats::write_errors`] — swallowed, as ever.
    pub fn save(&self, fingerprint: Fingerprint, artifact: &Artifact) {
        let Some(words) = render_blob(artifact) else {
            self.state().stats.write_errors += 1;
            return;
        };
        let path = self.blob_path(fingerprint);
        if path.exists() {
            return;
        }
        let write_span = trace::span("store.write");
        write_span.counter("bytes", (words.len() * WORD_BYTES) as u64);
        let bytes = words_to_bytes(&words);
        // Decorrelate the write schedule from the same key's read one.
        let seed = (fingerprint.0 as u64) ^ ((fingerprint.0 >> 64) as u64) ^ 1;
        let mut backoff = Backoff::new(seed);
        let mut attempt = 0u64;
        loop {
            let temp = self.temp_path(fingerprint);
            let written = self
                .write_with_faults(&temp, &bytes)
                .and_then(|()| self.rename_with_faults(&temp, &path));
            let error = match written {
                Ok(()) => {
                    let mut state = self.state();
                    state.stats.write_throughs += 1;
                    state.stats.bytes_written += bytes.len() as u64;
                    if attempt > 0 {
                        state.stats.retry_successes += 1;
                    }
                    state.touch(fingerprint);
                    return;
                }
                Err(error) => error,
            };
            let _ = fs::remove_file(&temp);
            let delay = if cancel::cancelled() { None } else { backoff.next_delay() };
            let Some(delay) = delay else {
                self.state().stats.write_errors += 1;
                return;
            };
            self.state().stats.retries += 1;
            fault_event("store.retry", &path, &format!("{error}"), attempt);
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Persists a verified-phase record: "the artifact whose verify
    /// query key is `key` passed check (key `check_key`, output
    /// `check_output`) and verify under these inputs". Atomic like blob
    /// writes; failures are silently dropped (the record is a pure
    /// accelerator — its absence re-runs two phases). An existing record
    /// is left in place (records are content-addressed by their key).
    pub fn save_verified(
        &self,
        key: Fingerprint,
        check_key: Fingerprint,
        check_output: Fingerprint,
    ) {
        let path = self.verified_path(key);
        if path.exists() {
            return;
        }
        let payload = [
            check_key.0 as u64,
            (check_key.0 >> 64) as u64,
            check_output.0 as u64,
            (check_output.0 >> 64) as u64,
        ];
        let checksum = Fingerprint::of_words(&payload);
        let mut words = Vec::with_capacity(RECORD_HEADER_WORDS + VERIFIED_PAYLOAD_WORDS);
        words.push(STORE_MAGIC);
        words.push(FORMAT_VERSION);
        words.push(checksum.0 as u64);
        words.push((checksum.0 >> 64) as u64);
        words.extend_from_slice(&payload);
        let bytes = words_to_bytes(&words);
        let temp = self.temp_path(key);
        let written = fs::write(&temp, &bytes).and_then(|()| fs::rename(&temp, &path));
        match written {
            Ok(()) => {
                let mut state = self.state();
                state.stats.verified_writes += 1;
                state.stats.bytes_written += bytes.len() as u64;
                state.touch(key);
            }
            Err(_) => {
                let _ = fs::remove_file(&temp);
            }
        }
    }

    /// Loads the verified-phase record for `key`, returning the check
    /// key and check output fingerprint it recorded. A missing
    /// record is simply `None`; a corrupt one is counted as an invalid
    /// entry and deleted, like a corrupt blob.
    pub fn load_verified(&self, key: Fingerprint) -> Option<(Fingerprint, Fingerprint)> {
        let path = self.verified_path(key);
        let bytes = fs::read(&path).ok()?;
        match parse_verified(&bytes) {
            Ok(record) => {
                let mut state = self.state();
                state.stats.verified_hits += 1;
                state.stats.bytes_read += bytes.len() as u64;
                state.touch(key);
                Some(record)
            }
            Err(reason) => {
                self.state().stats.invalid_entries += 1;
                fault_event("store.corrupt", &path, reason, 0);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Sweeps the store down to `budget`. Entries whose keys are in
    /// `live` — the caller's reachable set: artifact keys *and* verify
    /// keys for the current graph — are protected; the rest are evicted
    /// least-recently-used first (by the store's recorded access order;
    /// entries it never touched rank oldest). If the live set alone
    /// exceeds the budget, live entries are evicted too, LRU-first: the
    /// budget is a hard bound, and an evicted live entry merely makes
    /// some future build re-compile and write it back.
    ///
    /// Safe against concurrent readers: eviction is an `unlink`, and a
    /// load that already holds the blob's file handle keeps reading its
    /// sections; one that opens later sees an ordinary miss.
    pub fn gc(&self, live: &HashSet<Fingerprint>, budget: StoreBudget) -> GcReport {
        let _span = trace::span("store.gc");
        struct Victim {
            path: PathBuf,
            len: u64,
            live: bool,
            access: u64,
        }
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return GcReport::default();
        };
        let access = {
            let state = self.state();
            state.access.clone()
        };
        let mut entries: Vec<Victim> = Vec::new();
        for entry in dir.flatten() {
            let path = entry.path();
            if !path.extension().is_some_and(|e| e == "art" || e == "vfy") {
                continue;
            }
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let key =
                path.file_stem().and_then(|stem| stem.to_str()).and_then(parse_fingerprint_stem);
            // An unparsable stem is foreign debris: never live, oldest
            // possible rank, first out the door.
            let live = key.is_some_and(|k| live.contains(&k));
            let access = key.and_then(|k| access.get(&k).copied()).unwrap_or(0);
            entries.push(Victim { path, len, live, access });
        }

        let total: u64 = entries.iter().map(|e| e.len).sum();
        let mut report = GcReport {
            scanned: entries.len() as u64,
            scanned_bytes: total,
            live: entries.iter().filter(|e| e.live).count() as u64,
            ..GcReport::default()
        };
        // Dead before live, then oldest access first, then path for a
        // deterministic tie-break.
        entries.sort_by(|a, b| (a.live, a.access, &a.path).cmp(&(b.live, b.access, &b.path)));
        let mut remaining = total;
        for victim in &entries {
            if remaining <= budget.max_bytes {
                break;
            }
            if fs::remove_file(&victim.path).is_ok() {
                remaining -= victim.len;
                report.evicted += 1;
                report.evicted_bytes += victim.len;
            }
        }
        report.retained_bytes = remaining;
        if report.evicted > 0 {
            let mut state = self.state();
            state.stats.gc_evictions += report.evicted;
            state.stats.gc_evicted_bytes += report.evicted_bytes;
        }
        report
    }

    fn temp_path(&self, fingerprint: Fingerprint) -> PathBuf {
        let sequence = TEMP_SEQUENCE.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!(".{fingerprint}.{}.{sequence}.tmp", std::process::id()))
    }
}

/// Parses a `<fingerprint:032x>` file stem back into a key.
fn parse_fingerprint_stem(stem: &str) -> Option<Fingerprint> {
    if stem.len() != 32 {
        return None;
    }
    u128::from_str_radix(stem, 16).ok().map(Fingerprint)
}

/// One entry of a v3 blob's section table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SectionEntry {
    offset_words: u64,
    len_words: u64,
    checksum: Fingerprint,
}

/// A validated v3 blob header.
struct BlobHeader {
    interface_alpha: Fingerprint,
    output_alpha: Fingerprint,
    entries: [SectionEntry; SECTION_COUNT],
}

/// Validates a v3 header (magic, version, header checksum, section
/// count, and section extents against the file length), naming the
/// corruption on failure.
fn parse_header(words: &[u64], file_words: usize) -> Result<BlobHeader, &'static str> {
    debug_assert_eq!(words.len(), HEADER_V3_WORDS);
    if words[0] != STORE_MAGIC {
        return Err("bad magic");
    }
    if words[1] != FORMAT_VERSION {
        return Err("format version skew");
    }
    let recorded = Fingerprint((u128::from(words[3]) << 64) | u128::from(words[2]));
    let intact = {
        let _span = trace::span("store.checksum");
        Fingerprint::of_words(&words[4..HEADER_V3_WORDS]) == recorded
    };
    if !intact {
        return Err("header checksum mismatch");
    }
    if words[8] != SECTION_COUNT as u64 {
        return Err("bad section count");
    }
    let interface_alpha = Fingerprint((u128::from(words[5]) << 64) | u128::from(words[4]));
    let output_alpha = Fingerprint((u128::from(words[7]) << 64) | u128::from(words[6]));
    let mut entries =
        [SectionEntry { offset_words: 0, len_words: 0, checksum: Fingerprint::default() };
            SECTION_COUNT];
    let mut expected_offset = HEADER_V3_WORDS as u64;
    for (index, entry) in entries.iter_mut().enumerate() {
        let base = SECTION_TABLE_WORD + index * SECTION_ENTRY_WORDS;
        let offset_words = words[base];
        let len_words = words[base + 1];
        if offset_words != expected_offset {
            return Err("bad section offset");
        }
        expected_offset = expected_offset.checked_add(len_words).ok_or("bad section offset")?;
        *entry = SectionEntry {
            offset_words,
            len_words,
            checksum: Fingerprint(
                (u128::from(words[base + 3]) << 64) | u128::from(words[base + 2]),
            ),
        };
    }
    match expected_offset.cmp(&(file_words as u64)) {
        std::cmp::Ordering::Greater => Err("truncated section"),
        std::cmp::Ordering::Less => Err("trailing words"),
        std::cmp::Ordering::Equal => Ok(BlobHeader { interface_alpha, output_alpha, entries }),
    }
}

/// The deferred-decode half of a lazily-loaded artifact: an open file
/// handle, the blob's section table, and one memo cell per section.
/// Each section is `pread`, checksummed, and materialized at most once,
/// on first access — the deletion-safe handle means a concurrent GC (or
/// a corrupt-and-deleted sibling) never invalidates it.
///
/// Corruption discovered here — a failed per-section checksum, a short
/// `pread` — is the lazy twin of a corrupt load: counted as an invalid
/// entry, traced as `store.corrupt`, and the blob deleted so the next
/// build writes a fresh one. The accessor then returns `Err`, and the
/// session degrades to a recompile.
pub(crate) struct LazySections {
    file: fs::File,
    path: PathBuf,
    entries: [SectionEntry; SECTION_COUNT],
    cells: [OnceLock<Result<WireTerm, String>>; SECTION_COUNT],
    counters: Arc<SharedCounters>,
}

impl std::fmt::Debug for LazySections {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazySections")
            .field("path", &self.path)
            .field("decoded", &self.cells.iter().filter(|c| c.get().is_some()).count())
            .finish_non_exhaustive()
    }
}

impl LazySections {
    /// The section at `index` (0 = CC interface, 1 = CC-CC term, 2 =
    /// CC-CC type), read and verified on first call, memoized after.
    ///
    /// # Errors
    ///
    /// Returns the corruption (or I/O failure) that made the section
    /// unreadable; the blob has already been deleted and counted.
    pub(crate) fn section(&self, index: usize) -> Result<WireTerm, String> {
        self.cells[index].get_or_init(|| self.read_section(index)).clone()
    }

    /// The section's encoded size in words, straight from the table —
    /// available without decoding anything.
    pub(crate) fn section_words(&self, index: usize) -> usize {
        self.entries[index].len_words as usize
    }

    fn read_section(&self, index: usize) -> Result<WireTerm, String> {
        let entry = self.entries[index];
        let result = (|| {
            let span = trace::span("store.section");
            let mut bytes = vec![0u8; entry.len_words as usize * WORD_BYTES];
            self.file
                .read_exact_at(&mut bytes, entry.offset_words * WORD_BYTES as u64)
                .map_err(|e| format!("section read failed: {e}"))?;
            span.counter("bytes", bytes.len() as u64);
            self.counters.bytes_read.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            let words = words_of_bytes(&bytes).map_err(str::to_owned)?;
            let intact = {
                let _span = trace::span("store.checksum");
                Fingerprint::of_words(&words) == entry.checksum
            };
            if !intact {
                return Err("section checksum mismatch".to_owned());
            }
            Ok(WireTerm::from_words(words))
        })();
        match result {
            Ok(section) => {
                self.counters.sections_decoded.fetch_add(1, Ordering::Relaxed);
                Ok(section)
            }
            Err(reason) => {
                // Lazy rot: the same self-healing as a corrupt load,
                // just detected at first decode instead.
                self.counters.invalid.fetch_add(1, Ordering::Relaxed);
                fault_event("store.corrupt", &self.path, &reason, 0);
                let _ = fs::remove_file(&self.path);
                Err(reason)
            }
        }
    }
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * WORD_BYTES);
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// Serializes an artifact into v3 blob words (header with section table,
/// then the three section bodies). Returns `None` if a section fails to
/// decode — a process-local corruption that should never happen and is
/// treated as a write error.
fn render_blob(artifact: &Artifact) -> Option<Vec<u64>> {
    let render_span = trace::span("store.render");
    // Transcode each section into the portable encoding. The in-memory
    // sections were produced by this process (or loaded portably), so
    // decoding them here cannot fail on well-formed artifacts.
    let source_ty =
        src::wire::encode_portable(&src::wire::decode(&artifact.source_ty().ok()?).ok()?);
    let target = tgt::wire::encode_portable(&tgt::wire::decode(&artifact.target().ok()?).ok()?);
    let target_ty =
        tgt::wire::encode_portable(&tgt::wire::decode(&artifact.target_ty().ok()?).ok()?);

    let sections = [&source_ty, &target, &target_ty];
    let section_words: usize = sections.iter().map(|s| s.len()).sum();
    let mut words = Vec::with_capacity(HEADER_V3_WORDS + section_words);
    words.push(STORE_MAGIC);
    words.push(FORMAT_VERSION);
    words.push(0); // header checksum, filled in below
    words.push(0);
    let interface_alpha = artifact.interface_fingerprint();
    let output_alpha = artifact.output_fingerprint();
    words.push(interface_alpha.0 as u64);
    words.push((interface_alpha.0 >> 64) as u64);
    words.push(output_alpha.0 as u64);
    words.push((output_alpha.0 >> 64) as u64);
    words.push(SECTION_COUNT as u64);
    let mut offset = HEADER_V3_WORDS as u64;
    for section in sections {
        let checksum = Fingerprint::of_words(section.words());
        words.push(offset);
        words.push(section.len() as u64);
        words.push(checksum.0 as u64);
        words.push((checksum.0 >> 64) as u64);
        offset += section.len() as u64;
    }
    debug_assert_eq!(words.len(), HEADER_V3_WORDS);
    let header_checksum = Fingerprint::of_words(&words[4..HEADER_V3_WORDS]);
    words[2] = header_checksum.0 as u64;
    words[3] = (header_checksum.0 >> 64) as u64;
    for section in sections {
        words.extend_from_slice(section.words());
    }
    render_span.counter("words", words.len() as u64);
    Some(words)
}

fn words_of_bytes(bytes: &[u8]) -> Result<Vec<u64>, &'static str> {
    if !bytes.len().is_multiple_of(8) {
        return Err("length not word-aligned");
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")))
        .collect())
}

/// Checks a verified record's magic, version, and whole-payload
/// checksum, returning its payload. (Artifact blobs use the richer v3
/// header — [`parse_header`]; this framing is for the tiny fixed-size
/// `.vfy` records, where a section table would be overhead.)
fn checked_payload(words: &[u64]) -> Result<&[u64], &'static str> {
    if words.len() < RECORD_HEADER_WORDS + 2 {
        return Err("truncated header");
    }
    if words[0] != STORE_MAGIC {
        return Err("bad magic");
    }
    if words[1] != FORMAT_VERSION {
        return Err("format version skew");
    }
    let checksum = Fingerprint((u128::from(words[3]) << 64) | u128::from(words[2]));
    let payload = &words[RECORD_HEADER_WORDS..];
    let verified = {
        let _span = trace::span("store.checksum");
        Fingerprint::of_words(payload) == checksum
    };
    if !verified {
        return Err("checksum mismatch");
    }
    Ok(payload)
}

fn fingerprint_at(payload: &[u64], index: usize) -> Fingerprint {
    Fingerprint((u128::from(payload[index + 1]) << 64) | u128::from(payload[index]))
}

/// Parses a verified-phase record back into `(check_key, check_output)`.
fn parse_verified(bytes: &[u8]) -> Result<(Fingerprint, Fingerprint), &'static str> {
    let words = words_of_bytes(bytes)?;
    let payload = checked_payload(&words)?;
    if payload.len() != VERIFIED_PAYLOAD_WORDS {
        return Err("bad record size");
    }
    Ok((fingerprint_at(payload, 0), fingerprint_at(payload, 2)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder as s;
    use cccc_target::builder as t;

    fn sample_artifact() -> Artifact {
        Artifact::new(
            src::wire::encode(&s::pi("A", s::star(), s::arrow(s::var("A"), s::var("A")))),
            tgt::wire::encode(&t::closure(
                t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x")),
                t::unit_val(),
            )),
            tgt::wire::encode(&t::bool_ty()),
            Fingerprint::of_words(&[9, 9, 9]),
            Fingerprint::of_words(&[8, 8, 8]),
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cccc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn blobs_round_trip_with_lazy_sections() {
        let dir = temp_dir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[1, 2, 3]);
        let artifact = sample_artifact();
        store.save(key, &artifact);

        let loaded = store.load(key).expect("blob loads");
        assert!(loaded.is_lazy(), "loads defer the sections");
        assert_eq!(loaded.interface_fingerprint(), artifact.interface_fingerprint());
        assert_eq!(loaded.output_fingerprint(), artifact.output_fingerprint());
        // Nothing decoded yet: the load read only the header.
        let after_load = store.counters();
        assert_eq!(after_load.sections_decoded, 0);
        assert_eq!(after_load.sections_skipped, 3);
        assert_eq!(after_load.bytes_read, (HEADER_V3_WORDS * WORD_BYTES) as u64);
        // Sections decode on demand to α-equivalent terms through the
        // relocatable symbol table (the `arrow` builder freshens its
        // binder, so the loaded interface is an α-variant, not an
        // identical term).
        let original = src::wire::decode(&artifact.source_ty().unwrap()).unwrap();
        let decoded = src::wire::decode(&loaded.source_ty().unwrap()).unwrap();
        assert!(cccc_source::subst::alpha_eq(&original, &decoded));
        let original = tgt::wire::decode(&artifact.target().unwrap()).unwrap();
        let decoded = tgt::wire::decode(&loaded.target().unwrap()).unwrap();
        assert!(cccc_target::subst::alpha_eq(&original, &decoded));
        // A second access is a memo hit: still 2 decoded, no new bytes.
        let _ = loaded.target().unwrap();
        let stats = store.stats();
        assert_eq!(stats.sections_decoded, 2);
        assert!(stats.bytes_read > after_load.bytes_read);
        assert_eq!(stats.write_throughs, 1);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert_eq!(stats.bytes_written, stats.bytes, "one blob written, fully accounted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reading_every_section_decodes_each_once_and_reads_the_whole_blob() {
        let dir = temp_dir("full-read");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[6, 6]);
        let artifact = sample_artifact();
        store.save(key, &artifact);
        let blob_bytes = fs::metadata(store.blob_path(key)).unwrap().len();

        let loaded = store.load(key).expect("blob loads");
        for _ in 0..2 {
            let source_ty = src::wire::decode(&loaded.source_ty().unwrap()).unwrap();
            let target = tgt::wire::decode(&loaded.target().unwrap()).unwrap();
            let target_ty = tgt::wire::decode(&loaded.target_ty().unwrap()).unwrap();
            let original = src::wire::decode(&artifact.source_ty().unwrap()).unwrap();
            assert!(cccc_source::subst::alpha_eq(&original, &source_ty));
            let original = tgt::wire::decode(&artifact.target().unwrap()).unwrap();
            assert!(cccc_target::subst::alpha_eq(&original, &target));
            let original = tgt::wire::decode(&artifact.target_ty().unwrap()).unwrap();
            assert!(cccc_target::subst::alpha_eq(&original, &target_ty));
            // The second pass is all memo hits: the counters stay put.
            let counters = store.counters();
            assert_eq!(counters.sections_decoded, 3);
            assert_eq!(counters.sections_skipped, 3);
            assert_eq!(counters.bytes_read, blob_bytes, "header and sections, each read once");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_blobs_are_misses_and_wipe_empties_the_store() {
        let dir = temp_dir("wipe");
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.load(Fingerprint::of_words(&[7])).is_none());
        assert_eq!(store.counters().disk_misses, 1);

        store.save(Fingerprint::of_words(&[7]), &sample_artifact());
        store.save_verified(
            Fingerprint::of_words(&[70]),
            Fingerprint::of_words(&[71]),
            Fingerprint::of_words(&[72]),
        );
        assert_eq!(store.stats().entries, 1);
        store.wipe().unwrap();
        assert_eq!(store.stats().entries, 0);
        assert!(store.load(Fingerprint::of_words(&[7])).is_none());
        assert!(
            store.load_verified(Fingerprint::of_words(&[70])).is_none(),
            "wipe removes verified records too"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn saving_an_existing_key_is_a_no_op() {
        let dir = temp_dir("dedup");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[4]);
        store.save(key, &sample_artifact());
        store.save(key, &sample_artifact());
        let stats = store.stats();
        assert_eq!(stats.write_throughs, 1, "content-addressed: second save skips");
        assert_eq!(stats.entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verified_records_round_trip_and_survive_only_intact() {
        let dir = temp_dir("verified");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[31]);
        let check_key = Fingerprint::of_words(&[32]);
        let check_output = Fingerprint::of_words(&[33]);

        assert!(store.load_verified(key).is_none(), "missing record is a quiet miss");
        store.save_verified(key, check_key, check_output);
        store.save_verified(key, check_key, check_output);
        assert_eq!(store.counters().verified_writes, 1, "second save skips (content-addressed)");
        assert_eq!(store.load_verified(key), Some((check_key, check_output)));
        assert_eq!(store.counters().verified_hits, 1);
        assert_eq!(store.counters().disk_hits, 0, "record traffic never counts as blob traffic");

        // Corrupt the record: invalid entry, deleted, miss thereafter.
        let path = store.verified_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_verified(key).is_none());
        assert_eq!(store.counters().invalid_entries, 1);
        assert!(store.load_verified(key).is_none(), "the corrupt record was deleted");

        // And a re-save heals it.
        store.save_verified(key, check_key, check_output);
        assert_eq!(store.load_verified(key), Some((check_key, check_output)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blobs_are_invalid_entries_not_errors() {
        let dir = temp_dir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[5]);
        store.save(key, &sample_artifact());
        let path = store.blob_path(key);
        let good = fs::read(&path).unwrap();

        // Truncated blob (extent checks catch it at load, even though
        // the cut lands in a section body the header never reads).
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(store.load(key).is_none());

        // Flipped fingerprint byte: header checksum mismatch.
        let mut flipped = good.clone();
        flipped[4 * WORD_BYTES] ^= 0xFF;
        fs::write(&path, &flipped).unwrap();
        assert!(store.load(key).is_none());

        // Version skew: bump the version word (how a v2 blob reads).
        let mut skewed = good.clone();
        skewed[WORD_BYTES] = skewed[WORD_BYTES].wrapping_add(1);
        fs::write(&path, &skewed).unwrap();
        assert!(store.load(key).is_none());

        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        fs::write(&path, &bad_magic).unwrap();
        assert!(store.load(key).is_none());

        // Not even word-aligned.
        fs::write(&path, b"short").unwrap();
        assert!(store.load(key).is_none());

        assert_eq!(store.counters().invalid_entries, 5);
        assert_eq!(store.counters().disk_hits, 0);

        // The original bytes still load.
        fs::write(&path, &good).unwrap();
        assert!(store.load(key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lazy_section_rot_invalidates_and_deletes_on_first_decode() {
        let dir = temp_dir("lazy-rot");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[44]);
        store.save(key, &sample_artifact());
        let path = store.blob_path(key);

        // Flip the blob's last byte: it lands in the final section's
        // body, which the header read never touches …
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let loaded = store.load(key).expect("the header is intact, so the load succeeds");
        assert_eq!(store.counters().invalid_entries, 0);

        // … untouched sections still decode …
        assert!(loaded.source_ty().is_ok());
        assert!(loaded.target().is_ok());

        // … and the rotted one fails at first access: counted, deleted,
        // memoized.
        let err = loaded.target_ty().expect_err("rot is detected at decode");
        assert!(err.contains("checksum mismatch"), "reason names the corruption: {err}");
        assert_eq!(store.counters().invalid_entries, 1);
        assert!(!path.exists(), "the rotted blob self-healed by deletion");
        assert!(loaded.target_ty().is_err(), "the verdict is memoized");
        assert_eq!(store.counters().invalid_entries, 1, "… and not re-counted");
        assert!(store.load(key).is_none(), "the key is a miss now");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_respects_the_live_set_and_the_hard_budget() {
        let dir = temp_dir("gc");
        let store = ArtifactStore::open(&dir).unwrap();
        let keys: Vec<Fingerprint> = (0..4).map(|i| Fingerprint::of_words(&[100 + i])).collect();
        for &key in &keys {
            store.save(key, &sample_artifact());
        }
        let blob_len = fs::metadata(store.blob_path(keys[0])).unwrap().len();
        // Touch key 2 so it is the most recently used of the dead set.
        assert!(store.load(keys[2]).is_some());

        // Budget for exactly two blobs; keys 0 and 1 are live.
        let live: HashSet<Fingerprint> = [keys[0], keys[1]].into_iter().collect();
        let report = store.gc(&live, StoreBudget { max_bytes: 2 * blob_len });
        assert_eq!(report.scanned, 4);
        assert_eq!(report.live, 2);
        assert_eq!(report.evicted, 2, "both dead blobs go (live ones fit the budget)");
        assert_eq!(report.retained_bytes, 2 * blob_len);
        assert!(store.load(keys[0]).is_some(), "live keys survive");
        assert!(store.load(keys[1]).is_some());
        assert!(store.load(keys[2]).is_none(), "dead keys are gone");
        assert!(store.load(keys[3]).is_none());
        assert_eq!(store.counters().gc_evictions, 2);
        assert_eq!(store.counters().gc_evicted_bytes, 2 * blob_len);

        // A budget below the live set evicts live entries too — the
        // budget is a hard bound — least recently used first.
        assert!(store.load(keys[1]).is_some(), "touch key 1: key 0 becomes the LRU");
        let report = store.gc(&live, StoreBudget { max_bytes: blob_len });
        assert_eq!(report.evicted, 1);
        assert!(store.load(keys[0]).is_none(), "the older live key was sacrificed");
        assert!(store.load(keys[1]).is_some(), "the newer live key survived");
        assert!(store.stats().bytes <= blob_len);

        // Under budget: a sweep is a no-op.
        let report = store.gc(&live, StoreBudget { max_bytes: u64::MAX });
        assert_eq!(report.evicted, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_read_faults_are_retried_into_hits() {
        let dir = temp_dir("retry-read");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[61]);
        store.save(key, &sample_artifact());

        // Fail the first attempt's open: the retry claims the next read
        // position and succeeds — a warm hit the pre-retry store lost.
        store.set_faults(FaultPlan { fail_read: Some(0), ..FaultPlan::default() });
        assert!(store.load(key).is_some(), "one transient fault is absorbed by a retry");
        let stats = store.counters();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_misses, 0, "the fault never surfaced as a miss");
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.retry_successes, 1);

        // Two stacked transients (open, then pread) still recover within
        // the attempt budget.
        store.set_faults(FaultPlan {
            fail_read: Some(0),
            fail_pread: Some(1),
            ..FaultPlan::default()
        });
        assert!(store.load(key).is_some());
        let stats = store.counters();
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.retry_successes, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_blobs_and_corruption_are_never_retried() {
        let dir = temp_dir("retry-permanent");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[62]);

        // A cold miss claims exactly one read position: no retry, no
        // backoff latency on the common path.
        assert!(store.load(key).is_none());
        assert_eq!(store.counters().retries, 0);
        assert_eq!(store.state().fault_state.reads, 1);

        // Corruption is permanent: one attempt, invalidated, deleted.
        // (`set_faults` reset the positional counters above.)
        store.save(key, &sample_artifact());
        store.set_faults(FaultPlan { short_read: Some(0), ..FaultPlan::default() });
        assert!(store.load(key).is_none());
        let stats = store.counters();
        assert_eq!(stats.invalid_entries, 1);
        assert_eq!(stats.retries, 0, "corruption must not be retried");
        assert!(!store.blob_path(key).exists(), "still self-healing");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried_into_write_throughs() {
        let dir = temp_dir("retry-write");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = Fingerprint::of_words(&[63]);
        // Writes and renames keep separate positional counters, and a
        // failed write short-circuits its attempt's rename: attempt 0
        // fails the write, attempt 1 fails the (first) rename, attempt 2
        // lands the blob.
        store.set_faults(FaultPlan {
            fail_write: Some(0),
            fail_rename: Some(0),
            ..FaultPlan::default()
        });
        store.save(key, &sample_artifact());
        let stats = store.counters();
        assert_eq!(stats.write_throughs, 1, "the artifact landed despite two faults");
        assert_eq!(stats.write_errors, 0);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.retry_successes, 1);
        assert!(store.load(key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_sweeps_verified_records_with_the_same_key_space() {
        let dir = temp_dir("gc-vfy");
        let store = ArtifactStore::open(&dir).unwrap();
        let live_key = Fingerprint::of_words(&[201]);
        let dead_key = Fingerprint::of_words(&[202]);
        store.save_verified(live_key, Fingerprint::of_words(&[1]), Fingerprint::of_words(&[2]));
        store.save_verified(dead_key, Fingerprint::of_words(&[3]), Fingerprint::of_words(&[4]));
        let live: HashSet<Fingerprint> = [live_key].into_iter().collect();
        let report = store.gc(&live, StoreBudget { max_bytes: 64 });
        assert_eq!(report.evicted, 1);
        assert!(store.load_verified(live_key).is_some());
        assert!(store.load_verified(dead_key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
