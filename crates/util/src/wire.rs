//! A compact, deterministic, thread-portable term encoding.
//!
//! The hash-consed term handles of [`crate::intern`] are deliberately
//! `!Send`: each thread owns its own interner, so [`Node<T>`](crate::intern::Node)
//! ids never need cross-thread coordination and interning never takes a
//! lock. The price is that terms cannot cross a thread boundary as
//! handles. This module is the *explicit* cross-thread story: a term is
//! flattened into a [`WireTerm`] — a plain `Send + Sync` word buffer — on
//! the producing thread and re-interned from it on the consuming thread.
//! The parallel module driver moves unit sources, exported interfaces, and
//! compiled artifacts between workers exactly this way.
//!
//! The encoding is:
//!
//! * **compact** — each node is a tag word plus its scalar fields, and
//!   shared subterms (common after hash-consing) are written once and
//!   referenced by index afterwards, so the buffer is linear in the DAG
//!   size, not the tree size;
//! * **deterministic** — encoding the same term always produces the same
//!   words within a process (symbols are written as their raw interner
//!   parts, which are process-stable), so a hash of the buffer is a
//!   stable content fingerprint, usable as a cache key;
//! * **language-agnostic** — the writer/reader know nothing about CC or
//!   CC-CC; each language crate layers its own tag scheme on top in its
//!   `wire` module.
//!
//! Fingerprints are 128 bits ([`Fingerprint`]): two independent 64-bit
//! FxHash passes. The artifact cache keys rebuild-skipping decisions on
//! them, so collision probability must be negligible at fleet scale; a
//! single 64-bit hash would leave a birthday bound within reach of a
//! long-lived build service.
//!
//! # Portable buffers (the on-disk story)
//!
//! The *raw* encoding above writes symbols as their raw interner parts,
//! which are only meaningful within the producing process — fine for the
//! driver's cross-*thread* transfers, useless on disk. A **portable**
//! buffer ([`WireWriter::portable`]) instead writes each symbol as a
//! local index into a *relocatable symbol table* carried in the buffer
//! itself: one entry per distinct symbol, holding the symbol's base name
//! as bytes plus a disambiguator that is `0` for plain (interned) names
//! and nonzero for generated ones. The table is preceded by the writer's
//! *nonce*, one random word drawn once per process, so a generated entry
//! is named by `(nonce, disambiguator)` everywhere: disambiguators are
//! unique within the writing process, and the nonce tells processes
//! apart. [`WireTerm::term_reader`] recognises the framing marker,
//! relocates every table entry into the *current* process, and hands back
//! a reader that resolves symbol references through the rebuilt table.
//! Plain names re-intern via [`Symbol::intern`], so unit references
//! resolve to the same symbols importers use. Generated names go through
//! one process-wide relocation table: the first decode of a
//! `(nonce, disambiguator)` pair mints [`Symbol::fresh`], and every later
//! decode of the pair, from any buffer on any thread, reuses that symbol.
//! Re-decoding a stored artifact therefore rebuilds structurally
//! identical terms, which the thread's interner answers with the nodes it
//! already holds. Relocation is sound because it is injective (distinct
//! writer names have distinct pairs) and every minted name is new to the
//! reader, so no decoded binder can capture a name the reader already
//! had. This is what lets the persistent artifact store load blobs
//! written by an earlier process. [`FORMAT_VERSION`] versions the
//! framing; stores embed it in their headers and treat skew as a cache
//! miss.

use crate::intern::{FxHashMap, FxHasher};
use crate::symbol::Symbol;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Version of the portable wire framing (symbol table layout + store
/// header vocabulary). Bump on any incompatible change; persistent
/// stores write it into their blob headers and treat mismatches as
/// misses, never as errors.
///
/// History: 1 = original sectioned artifact blobs; 2 = artifact blobs
/// gained the output α-fingerprint (early cutoff) and the store grew
/// verified-phase records; 3 = blob headers carry a section offset
/// table with per-section checksums, so loaders seek to — and verify —
/// exactly the sections they decode (v2 blobs read as version skew:
/// misses, then rewritten in v3 by the recompile's write-through);
/// 4 = portable buffers carry their writer's nonce after the entry
/// count, and generated names relocate to one symbol per process (v3
/// blobs read as version skew and are rewritten in v4).
pub const FORMAT_VERSION: u64 = 4;

/// First word of a portable buffer. Raw buffers always start with a
/// small language tag word, so the marker can never be confused for one.
const PORTABLE_MARKER: u64 = u64::MAX;

/// This process's writer nonce: one random word, drawn once, that every
/// portable buffer written here carries (see the module docs).
fn writer_nonce() -> u64 {
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| RandomState::new().build_hasher().finish())
}

/// The process-wide relocation table: the one symbol minted in this
/// process for each generated `(writer nonce, disambiguator)` pair that a
/// portable buffer has carried. Its keys are read from disk, so it keeps
/// the default (collision-resistant) hasher.
fn relocations() -> &'static Mutex<HashMap<(u64, u64), Symbol>> {
    static TABLE: OnceLock<Mutex<HashMap<(u64, u64), Symbol>>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

/// A 128-bit content fingerprint of a wire buffer.
///
/// Stable within a process for a given term (see the module docs for why
/// it is not stable *across* processes: symbol base indices depend on
/// interning order).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Fingerprints a word slice: two FxHash passes with distinct seeds.
    pub fn of_words(words: &[u64]) -> Fingerprint {
        let mut lo = FxHasher::default();
        lo.write_u64(0x776972655f6c6f77); // "wire_low"
        let mut hi = FxHasher::default();
        hi.write_u64(0x776972655f686967); // "wire_hig"
        lo.write_usize(words.len());
        hi.write_usize(words.len());
        for &w in words {
            lo.write_u64(w);
            hi.write_u64(w.rotate_left(17));
        }
        Fingerprint((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
    }

    /// Fingerprints a string (unit names in cache keys).
    pub fn of_str(text: &str) -> Fingerprint {
        let mut lo = FxHasher::default();
        lo.write_u64(0x6e616d655f6c6f77); // "name_low"
        let mut hi = FxHasher::default();
        hi.write_u64(0x6e616d655f686967); // "name_hig"
        lo.write(text.as_bytes());
        lo.write_usize(text.len());
        hi.write(text.as_bytes());
        hi.write_usize(text.len() ^ 0x5a);
        Fingerprint((u128::from(hi.finish()) << 64) | u128::from(lo.finish()))
    }

    /// Combines this fingerprint with another into a new one (order
    /// matters). Used to fold a unit's source and its imports' interface
    /// fingerprints into one cache key.
    pub fn combine(self, other: Fingerprint) -> Fingerprint {
        let mut words = [0u64; 4];
        words[0] = self.0 as u64;
        words[1] = (self.0 >> 64) as u64;
        words[2] = other.0 as u64;
        words[3] = (other.0 >> 64) as u64;
        Fingerprint::of_words(&words)
    }

    /// Folds a bare word (a query's domain tag, a counter) into the
    /// fingerprint.
    pub fn combine_word(self, word: u64) -> Fingerprint {
        self.combine(Fingerprint::of_words(&[word]))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// An encoded term: an immutable, cheaply clonable, `Send + Sync` word
/// buffer produced by a language crate's `wire::encode` and consumed by
/// its `wire::decode` (possibly on a different thread).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireTerm {
    words: Arc<[u64]>,
}

impl WireTerm {
    /// Number of words in the encoding.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the buffer is empty (never true for a real term).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The content fingerprint of the encoding.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of_words(&self.words)
    }

    /// A reader positioned at the start of the buffer.
    pub fn reader(&self) -> WireReader<'_> {
        WireReader { words: &self.words, position: 0, symbols: None }
    }

    /// Whether this buffer uses the portable framing (leading symbol
    /// table; see the module docs).
    pub fn is_portable(&self) -> bool {
        self.words.first() == Some(&PORTABLE_MARKER)
    }

    /// A reader positioned at the first *term* word. For a raw buffer
    /// this is [`WireTerm::reader`]; for a portable buffer the symbol
    /// table is relocated into the current process first, and the reader
    /// resolves symbol references through it. Plain names re-intern;
    /// each generated name becomes the one symbol this process holds for
    /// its `(writer nonce, disambiguator)` pair, minted by
    /// [`Symbol::fresh`] at the pair's first decode (see the module docs).
    /// The relocation table's lock is taken at most once per buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when a portable symbol table is corrupt
    /// (truncated, oversized entry, invalid UTF-8).
    pub fn term_reader(&self) -> Result<WireReader<'_>, WireError> {
        let mut reader = self.reader();
        if !self.is_portable() {
            return Ok(reader);
        }
        reader.next_word()?; // the marker
        let count = reader.next_word()? as usize;
        let nonce = reader.next_word()?;
        // Each entry is at least two words (length + disambiguator), so a
        // count beyond half the buffer is corruption, not a table.
        if count > self.words.len() / 2 {
            return Err(WireError::Truncated);
        }
        let mut symbols = Vec::with_capacity(count);
        let mut relocated = None;
        for _ in 0..count {
            let base = reader.next_str()?;
            let disambiguator = reader.next_word()?;
            symbols.push(if disambiguator == 0 {
                Symbol::intern(&base)
            } else {
                let table = relocated.get_or_insert_with(|| {
                    relocations().lock().expect("relocation table poisoned")
                });
                *table.entry((nonce, disambiguator)).or_insert_with(|| Symbol::fresh(&base))
            });
        }
        reader.symbols = Some(symbols);
        Ok(reader)
    }

    /// Rebuilds a buffer from raw words (a persistent store reading a
    /// blob section back from disk).
    pub fn from_words(words: Vec<u64>) -> WireTerm {
        WireTerm { words: words.into() }
    }

    /// The underlying words (a persistent store writing the buffer out).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Errors produced when decoding a wire buffer.
///
/// Buffers are only ever produced by the paired encoder, so a decode error
/// indicates corruption or a version skew between encoder and decoder —
/// callers treat it as a hard failure, not a recoverable condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The reader ran off the end of the buffer.
    Truncated,
    /// An unknown tag word was encountered.
    BadTag(u64),
    /// A back-reference pointed past the nodes decoded so far.
    BadBackref(u64),
    /// A symbol reference pointed past the buffer's symbol table.
    BadSymbol(u64),
    /// A string in the symbol table was not valid UTF-8.
    BadString,
    /// The buffer decoded to a term but left trailing words.
    TrailingWords,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer is truncated"),
            WireError::BadTag(t) => write!(f, "wire buffer has unknown tag {t}"),
            WireError::BadBackref(i) => write!(f, "wire buffer back-reference {i} out of range"),
            WireError::BadSymbol(i) => write!(f, "wire buffer symbol reference {i} out of range"),
            WireError::BadString => write!(f, "wire buffer symbol table holds invalid UTF-8"),
            WireError::TrailingWords => write!(f, "wire buffer has trailing words"),
        }
    }
}

impl std::error::Error for WireError {}

/// The write half of a relocatable symbol table: assigns dense local ids
/// to the distinct symbols of a portable buffer, in first-use order.
#[derive(Default, Debug)]
struct SymbolRegistry {
    ids: FxHashMap<Symbol, u64>,
    entries: Vec<Symbol>,
}

impl SymbolRegistry {
    fn local_id(&mut self, symbol: Symbol) -> u64 {
        if let Some(&id) = self.ids.get(&symbol) {
            return id;
        }
        let id = self.entries.len() as u64;
        self.entries.push(symbol);
        self.ids.insert(symbol, id);
        id
    }
}

/// Builds a [`WireTerm`] word by word.
#[derive(Default, Debug)]
pub struct WireWriter {
    words: Vec<u64>,
    symbols: Option<SymbolRegistry>,
}

impl WireWriter {
    /// An empty writer producing the raw (process-local) encoding.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// An empty writer producing the *portable* encoding: symbols are
    /// written as local ids into a relocatable table that
    /// [`WireWriter::finish`] frames in front of the body, so the buffer
    /// survives a process restart (see the module docs).
    pub fn portable() -> WireWriter {
        WireWriter { words: Vec::new(), symbols: Some(SymbolRegistry::default()) }
    }

    /// Appends one word.
    pub fn push(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Appends a symbol: its raw `(base, unique)` parts (two words) in a
    /// raw writer, its table-local id (one word) in a portable one.
    pub fn push_symbol(&mut self, symbol: Symbol) {
        match &mut self.symbols {
            None => {
                let (base, unique) = symbol.raw_parts();
                self.words.push(u64::from(base));
                self.words.push(unique);
            }
            Some(registry) => {
                let id = registry.local_id(symbol);
                self.words.push(id);
            }
        }
    }

    /// Appends a string as a length word followed by its bytes packed
    /// eight per word (little-endian, zero-padded).
    pub fn push_str(&mut self, text: &str) {
        let bytes = text.as_bytes();
        self.words.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.words.push(u64::from_le_bytes(word));
        }
    }

    /// Number of words written so far (excluding any pending symbol-table
    /// framing).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Finishes the buffer. A portable writer frames its symbol table
    /// (marker, entry count, this process's writer nonce, then per entry
    /// the base name and a disambiguator — `0` for plain symbols, the
    /// generated subscript otherwise) in front of the body words.
    pub fn finish(self) -> WireTerm {
        match self.symbols {
            None => WireTerm { words: self.words.into() },
            Some(registry) => {
                let mut framed = WireWriter::new();
                framed.push(PORTABLE_MARKER);
                framed.push(registry.entries.len() as u64);
                framed.push(writer_nonce());
                for symbol in &registry.entries {
                    framed.push_str(symbol.base_name());
                    framed.push(symbol.raw_parts().1);
                }
                framed.words.extend_from_slice(&self.words);
                WireTerm { words: framed.words.into() }
            }
        }
    }
}

/// A cursor over a [`WireTerm`]'s words, optionally resolving symbol
/// references through a relocated symbol table
/// ([`WireTerm::term_reader`]).
#[derive(Debug)]
pub struct WireReader<'a> {
    words: &'a [u64],
    position: usize,
    symbols: Option<Vec<Symbol>>,
}

impl WireReader<'_> {
    /// Reads the next word.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer.
    pub fn next_word(&mut self) -> Result<u64, WireError> {
        let word = *self.words.get(self.position).ok_or(WireError::Truncated)?;
        self.position += 1;
        Ok(word)
    }

    /// Reads a symbol written by [`WireWriter::push_symbol`]: raw parts
    /// in a raw buffer, a relocation-table reference in a portable one.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of buffer, or
    /// [`WireError::BadSymbol`] on an out-of-range table reference.
    pub fn next_symbol(&mut self) -> Result<Symbol, WireError> {
        if self.symbols.is_none() {
            let base = self.next_word()?;
            let unique = self.next_word()?;
            return Ok(Symbol::from_raw_parts(base as u32, unique));
        }
        let id = self.next_word()?;
        let table = self.symbols.as_ref().expect("checked above");
        table.get(id as usize).copied().ok_or(WireError::BadSymbol(id))
    }

    /// Reads a string written by [`WireWriter::push_str`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] when the declared length runs
    /// past the buffer, or [`WireError::BadString`] on invalid UTF-8.
    pub fn next_str(&mut self) -> Result<String, WireError> {
        let len = self.next_word()? as usize;
        let remaining_bytes = (self.words.len() - self.position).saturating_mul(8);
        if len > remaining_bytes {
            return Err(WireError::Truncated);
        }
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            let take = (len - bytes.len()).min(8);
            let word = self.next_word()?.to_le_bytes();
            bytes.extend_from_slice(&word[..take]);
        }
        String::from_utf8(bytes).map_err(|_| WireError::BadString)
    }

    /// The next word, without consuming it (`None` at end of buffer).
    pub fn peek(&self) -> Option<u64> {
        self.words.get(self.position).copied()
    }

    /// Whether every word has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.position == self.words.len()
    }

    /// Fails unless the buffer is fully consumed (decoders call this after
    /// the root node).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingWords`] if words remain.
    pub fn expect_exhausted(&self) -> Result<(), WireError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(WireError::TrailingWords)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_words_and_symbols() {
        let mut w = WireWriter::new();
        assert!(w.is_empty());
        w.push(7);
        w.push_symbol(Symbol::intern("hello"));
        let generated = Symbol::fresh("env");
        w.push_symbol(generated);
        w.push(u64::MAX);
        let wire = w.finish();
        assert_eq!(wire.len(), 6);
        assert!(!wire.is_empty());

        let mut r = wire.reader();
        assert_eq!(r.next_word().unwrap(), 7);
        assert_eq!(r.next_symbol().unwrap(), Symbol::intern("hello"));
        assert_eq!(r.next_symbol().unwrap(), generated);
        assert!(!r.is_exhausted());
        assert_eq!(r.next_word().unwrap(), u64::MAX);
        assert!(r.expect_exhausted().is_ok());
        assert!(matches!(r.next_word(), Err(WireError::Truncated)));
    }

    #[test]
    fn fingerprints_are_stable_and_content_sensitive() {
        let mut a = WireWriter::new();
        a.push(1);
        a.push(2);
        let a = a.finish();
        let mut b = WireWriter::new();
        b.push(1);
        b.push(2);
        let b = b.finish();
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = WireWriter::new();
        c.push(2);
        c.push(1);
        let c = c.finish();
        assert_ne!(a.fingerprint(), c.fingerprint(), "order must matter");
        assert_ne!(
            Fingerprint::of_words(&[0]),
            Fingerprint::of_words(&[0, 0]),
            "length must matter"
        );
    }

    #[test]
    fn fingerprint_combine_is_order_sensitive() {
        let x = Fingerprint::of_words(&[1]);
        let y = Fingerprint::of_words(&[2]);
        assert_ne!(x.combine(y), y.combine(x));
        assert_ne!(x.combine(y), x);
        assert_ne!(x.combine_word(3), x.combine_word(4));
    }

    #[test]
    fn wire_terms_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WireTerm>();
        assert_send_sync::<Fingerprint>();
    }

    #[test]
    fn errors_render() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadTag(9).to_string().contains('9'));
        assert!(WireError::BadBackref(3).to_string().contains('3'));
        assert!(WireError::BadSymbol(4).to_string().contains('4'));
        assert!(WireError::BadString.to_string().contains("UTF-8"));
        let mut w = WireWriter::new();
        w.push(1);
        let wire = w.finish();
        assert!(matches!(wire.reader().expect_exhausted(), Err(WireError::TrailingWords)));
    }

    #[test]
    fn portable_buffers_relocate_symbols() {
        let plain = Symbol::intern("alpha");
        let generated = Symbol::fresh("beta");
        let mut w = WireWriter::portable();
        w.push(42);
        w.push_symbol(plain);
        w.push_symbol(generated);
        w.push_symbol(plain);
        w.push_symbol(generated);
        let wire = w.finish();
        assert!(wire.is_portable());

        let mut r = wire.term_reader().unwrap();
        assert_eq!(r.next_word().unwrap(), 42);
        let p1 = r.next_symbol().unwrap();
        let g1 = r.next_symbol().unwrap();
        let p2 = r.next_symbol().unwrap();
        let g2 = r.next_symbol().unwrap();
        assert!(r.expect_exhausted().is_ok());
        // Plain names re-intern to the identical symbol; a generated name
        // relocates to one symbol, new to this process, for all its
        // references.
        assert_eq!(p1, plain);
        assert_eq!(p2, plain);
        assert_eq!(g1, g2);
        assert_ne!(g1, generated, "a relocated generated symbol is freshly disambiguated");
        assert_eq!(g1.base_name(), "beta");
        assert!(g1.is_generated());
    }

    /// A hand-built portable buffer: a symbol table of `entries` (base
    /// name, disambiguator) under writer `nonce`, then one reference to
    /// each entry in table order.
    fn portable_buffer(nonce: u64, entries: &[(&str, u64)]) -> WireTerm {
        let mut w = WireWriter::new();
        w.push(PORTABLE_MARKER);
        w.push(entries.len() as u64);
        w.push(nonce);
        for &(base, disambiguator) in entries {
            w.push_str(base);
            w.push(disambiguator);
        }
        for id in 0..entries.len() {
            w.push(id as u64);
        }
        w.finish()
    }

    /// Every symbol reference of a [`portable_buffer`], in order.
    fn decode_symbols(wire: &WireTerm) -> Vec<Symbol> {
        let mut r = wire.term_reader().unwrap();
        let mut symbols = Vec::new();
        while !r.is_exhausted() {
            symbols.push(r.next_symbol().unwrap());
        }
        symbols
    }

    /// Relocation-table entries minted for writer `nonce`.
    fn relocated_under(nonce: u64) -> usize {
        relocations().lock().unwrap().keys().filter(|&&(n, _)| n == nonce).count()
    }

    #[test]
    fn one_writer_name_relocates_to_one_symbol() {
        let nonce = 0x7e57_0000_0000_0001;
        let first = decode_symbols(&portable_buffer(nonce, &[("a", 7), ("b", 8)]));
        // Another buffer from the same writer, naming one of the same
        // generated symbols (and a plain one), relocates it identically.
        let second = decode_symbols(&portable_buffer(nonce, &[("p", 0), ("a", 7)]));
        assert_eq!(first[0], second[1]);
        assert_ne!(first[0], first[1]);
        assert_eq!(second[0], Symbol::intern("p"));
        assert_eq!(first[0].base_name(), "a");
        assert_eq!(first, decode_symbols(&portable_buffer(nonce, &[("a", 7), ("b", 8)])));
    }

    #[test]
    fn one_disambiguator_under_two_nonces_relocates_apart() {
        let a = decode_symbols(&portable_buffer(0x7e57_0000_0000_0002, &[("x", 11)]));
        let b = decode_symbols(&portable_buffer(0x7e57_0000_0000_0003, &[("x", 11)]));
        assert_ne!(a[0], b[0], "two writers' names stay distinct in the reader");
        assert_eq!(a[0].base_name(), b[0].base_name());
    }

    #[test]
    fn relocated_names_are_new_to_the_reader() {
        let originals = [Symbol::fresh("n"), Symbol::fresh("n"), Symbol::fresh("_")];
        let mut w = WireWriter::portable();
        for &symbol in &originals {
            w.push_symbol(symbol);
        }
        let wire = w.finish();
        let before = Symbol::fresh("probe");
        let mut r = wire.term_reader().unwrap();
        let decoded: Vec<Symbol> = (0..originals.len()).map(|_| r.next_symbol().unwrap()).collect();
        for (decoded, original) in decoded.iter().zip(&originals) {
            assert_ne!(decoded, original, "a decode never hands back the writer's own symbol");
            assert_eq!(decoded.base_name(), original.base_name());
            // Subscripts grow monotonically, so a symbol minted after
            // `before` equals nothing that existed when the decode began.
            assert!(decoded.disambiguator() > before.disambiguator());
        }
        assert_ne!(decoded[0], decoded[1], "two writer names with one base stay apart");
    }

    #[test]
    fn redecoding_a_buffer_adds_no_relocations() {
        let nonce = 0x7e57_0000_0000_0004;
        let wire = portable_buffer(nonce, &[("_", 1), ("_", 2), ("plain", 0), ("env", 3)]);
        let first = decode_symbols(&wire);
        assert_eq!(relocated_under(nonce), 3, "one entry per generated name, none for plain");
        for _ in 0..50 {
            assert_eq!(decode_symbols(&wire), first);
        }
        assert_eq!(relocated_under(nonce), 3);
    }

    #[test]
    fn raw_buffers_are_not_portable_and_term_reader_is_the_identity() {
        let mut w = WireWriter::new();
        w.push(7);
        w.push_symbol(Symbol::intern("x"));
        let wire = w.finish();
        assert!(!wire.is_portable());
        let mut r = wire.term_reader().unwrap();
        assert_eq!(r.next_word().unwrap(), 7);
        assert_eq!(r.next_symbol().unwrap(), Symbol::intern("x"));
    }

    #[test]
    fn strings_round_trip_through_words() {
        for text in ["", "x", "exactly8", "more than eight bytes", "naïve — ünïcode"] {
            let mut w = WireWriter::new();
            w.push_str(text);
            w.push(99);
            let wire = w.finish();
            let mut r = wire.reader();
            assert_eq!(r.next_str().unwrap(), text);
            assert_eq!(r.next_word().unwrap(), 99);
            assert!(r.expect_exhausted().is_ok());
        }
    }

    #[test]
    fn corrupt_portable_tables_are_rejected() {
        // Truncated before the writer nonce.
        let mut w = WireWriter::new();
        w.push(PORTABLE_MARKER);
        w.push(0);
        assert!(matches!(w.finish().term_reader(), Err(WireError::Truncated)));

        // Truncated: entry count claims more than the buffer holds.
        let mut w = WireWriter::new();
        w.push(PORTABLE_MARKER);
        w.push(50);
        w.push(0); // writer nonce
        assert!(w.finish().term_reader().is_err());

        // Invalid UTF-8 in a table entry.
        let mut w = WireWriter::new();
        w.push(PORTABLE_MARKER);
        w.push(1);
        w.push(0); // writer nonce
        w.push(1); // one byte …
        w.push(0xFF); // … that is not valid UTF-8
        w.push(0); // disambiguator
        assert!(matches!(w.finish().term_reader(), Err(WireError::BadString)));

        // A symbol reference past the (empty) table.
        let mut w = WireWriter::portable();
        w.push(5); // looks like a symbol id to the reader, but no entry exists
        let wire = w.finish();
        let mut r = wire.term_reader().unwrap();
        assert!(matches!(r.next_symbol(), Err(WireError::BadSymbol(5))));
    }

    #[test]
    fn words_round_trip_through_from_words() {
        let mut w = WireWriter::new();
        w.push(1);
        w.push(2);
        let wire = w.finish();
        let rebuilt = WireTerm::from_words(wire.words().to_vec());
        assert_eq!(wire, rebuilt);
        assert_eq!(wire.fingerprint(), rebuilt.fingerprint());
    }
}
