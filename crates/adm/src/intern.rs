//! Interning: a name becomes a process-wide [`Symbol`]; a value becomes
//! a code in a [`Dict`] that is freed with the relations that use it.
//!
//! # Names: one process-wide arena
//!
//! Attribute names, page-scheme names and the column names an evaluation
//! qualifies them into become `u32` [`Symbol`] ids behind a process-wide
//! arena. The arena leaks its strings (`&'static str`), which is bounded
//! by the names a process meets — the schemes' vocabulary and the aliases
//! queries give them — and lets [`Symbol::as_str`] hand out references
//! without lifetimes. It holds names only: no text or link value ever
//! enters it, so [`interned_count`] and [`interned_bytes`] stay flat
//! however many pages a process reads or edits.
//!
//! ## One index, no lock on the read path
//!
//! *string → id* is one open-addressing index of `u32` cells, probed
//! linearly from the string's hash under a process-keyed
//! [`RandomState`] (the strings come from web pages, so the hash stays
//! keyed). A cell holds 0 while empty and id + 1 once an id is entered;
//! a probe compares the string of each id it meets with its own until it
//! finds it or meets an empty cell. The index grows in **generations**:
//! generation `g` has `4096 << g` cells, is filled with every id so far
//! before it is published by a `Release` store of its number, and is
//! never freed (nothing in the arena is), so all generations together
//! take under twice the current one. Entering an id grows the index
//! before the load would pass ½. [`Symbol::intern`] of a string met
//! before only loads: the generation
//! number, its cells, and the slots below — no lock, and no store to a
//! line another core reads. *id → string* is an append-only table of
//! write-once slots — leaves of 1024 under a directory that grows in
//! doubling chunks, so nothing ever moves — which [`Symbol::as_str`] reads
//! the same way.
//!
//! Only a string met for the first time takes the writer lock, re-probes
//! the current generation under it, and stores, in this order: the
//! string's **slot**, then its **index** cell, then the **length**. A
//! symbol is only ever handed out after its slot is set, so a reader that
//! holds one finds its string; and because the length is the last store,
//! a writer that dies between two of them leaves a slot the length does
//! not count yet, entered in the index or not, which the next writer
//! adopts — a poisoned lock is therefore recovered, never propagated, and
//! nothing in this module panics.
//!
//! # Values: one dictionary an evaluation
//!
//! A text or link cell of a [`crate::ColumnRel`] is a `u32` code in a
//! [`Dict`]: the strings end to end in one buffer, in code order, and an
//! open-addressing index from a string to its code, probed by the
//! string's bytes under the same process-keyed hash. Codes are dense and
//! only ever appended. An evaluation builds every relation it makes in one
//! dictionary, which each relation holds through an `Arc`, so its kernels
//! compare codes, and the dictionary is freed with the last relation that
//! holds it: a long-running process keeps the strings of what it still
//! holds, not of everything it ever read. A probe that finds its string
//! reads nothing but the bytes it compares, so a cell read in place from a
//! buffer checked once ([`crate::EncodedTuple`]) is checked for UTF-8 only
//! on its first sighting, before it is appended. [`live_dicts`] counts the
//! dictionaries not freed yet.
//!
//! A dictionary sits behind a `Mutex`, which only the evaluation that
//! made it takes: once a row a builder pushes, once a kernel that reads
//! strings.
//!
//! # Determinism
//!
//! Symbol ids and dictionary codes depend on interning *order*, which under
//! concurrent fetch can differ between runs. They are therefore only ever
//! used for **equality** (hash keys, dedup, join probes) — never for
//! ordering or output. Any ordering visible to a caller is derived from
//! the underlying strings.

use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// An interned name: a `u32` id into the global arena.
///
/// Equality of symbols is equality of the underlying strings. Symbols are
/// deliberately *not* `Ord`: ids reflect interning order, not lexicographic
/// order, and must never drive output ordering.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

/// One write-once entry of the id → string table.
type Slot = OnceLock<&'static str>;

/// A leaf holds the slots of 1024 consecutive ids. Allocating one touches
/// 24 KB — the most the table ever holds beyond the ids in use, which
/// matters because nothing here is ever freed.
type Leaf = OnceLock<Box<[Slot]>>;
const LEAF_BITS: u32 = 10;

/// The directory of leaves grows in doubling chunks (chunk `k` holds
/// `4 << k` leaves), so it never moves once allocated either; 21 chunks
/// cover every `u32` id.
const FIRST_CHUNK_BITS: u32 = 2;
const CHUNKS: usize = (u32::BITS - LEAF_BITS - FIRST_CHUNK_BITS + 1) as usize;

static TABLE: [OnceLock<Box<[Leaf]>>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];
/// Ids handed out so far. Stored (`Release`) after the slot and the index
/// cell of the newest id; an `Acquire` load of `n` therefore sees the
/// slots of every id below `n`.
static LEN: AtomicU32 = AtomicU32::new(0);
/// Bytes of the strings counted by [`LEN`] (a statistic: `Relaxed`).
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// Where an id lives: directory chunk, leaf within it, slot within the leaf.
fn locate(id: u32) -> (usize, usize, usize) {
    let leaf = (id >> LEAF_BITS) + (1 << FIRST_CHUNK_BITS);
    let chunk = leaf.ilog2() - FIRST_CHUNK_BITS;
    let slot = id & ((1 << LEAF_BITS) - 1);
    (
        chunk as usize,
        (leaf - (1 << leaf.ilog2())) as usize,
        slot as usize,
    )
}

/// The slot of an id, allocating its leaf (and the leaf's directory chunk)
/// if this is their first id. Called with the writer lock held.
fn slot_for_write(id: u32) -> &'static Slot {
    let (chunk, leaf, slot) = locate(id);
    let leaves = TABLE[chunk].get_or_init(|| {
        let len = 1usize << (FIRST_CHUNK_BITS as usize + chunk);
        (0..len).map(|_| Leaf::new()).collect()
    });
    let slots = leaves[leaf].get_or_init(|| (0..1 << LEAF_BITS).map(|_| Slot::new()).collect());
    &slots[slot]
}

/// The string of an id, if its slot is set: the whole lock-free read path.
fn published(id: u32) -> Option<&'static str> {
    let (chunk, leaf, slot) = locate(id);
    TABLE[chunk].get()?[leaf].get()?[slot].get().copied()
}

/// Generation `g` of the index has `1 << (INDEX_BITS + g)` cells. At most
/// half of a generation's cells are ever taken, so the last one holds
/// every `u32` id.
const INDEX_BITS: u32 = 12;
const GENERATIONS: usize = (u32::BITS + 2 - INDEX_BITS) as usize;

/// The string → id index, one table a generation (see the module docs).
static INDEX: [OnceLock<Box<[AtomicU32]>>; GENERATIONS] = [const { OnceLock::new() }; GENERATIONS];
/// The generation readers probe. Stored (`Release`) once every id so far
/// is in its cells.
static GENERATION: AtomicUsize = AtomicUsize::new(0);
/// Held by a writer: only a string met for the first time takes it.
static WRITER: Mutex<()> = Mutex::new(());

/// The hash keys, drawn once a process: the strings come from web pages.
fn keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

/// The string's hash, keyed once a process.
fn hash(s: &str) -> usize {
    keys().hash_one(s) as usize
}

/// The id of `s`, if the generation readers probe holds it: loads only.
fn find(s: &str) -> Option<u32> {
    let cells = INDEX.get(GENERATION.load(Ordering::Acquire))?.get()?;
    let mask = cells.len() - 1;
    let mut at = hash(s) & mask;
    for _ in 0..cells.len() {
        // `Acquire` pairs with `place`'s `Release`: the slot is set.
        let id = cells[at].load(Ordering::Acquire).checked_sub(1)?;
        if published(id) == Some(s) {
            return Some(id);
        }
        at = (at + 1) & mask;
    }
    None
}

/// Puts `id`, whose slot is set, in the first empty cell of its probe
/// sequence, unless it is there already (a dead writer's id is adopted
/// into a generation it may have reached).
fn place(cells: &[AtomicU32], id: u32) {
    let mask = cells.len() - 1;
    let mut at = hash(published(id).unwrap_or_default()) & mask;
    for _ in 0..cells.len() {
        match cells[at].load(Ordering::Relaxed) {
            0 => return cells[at].store(id + 1, Ordering::Release),
            cell if cell == id + 1 => return,
            _ => at = (at + 1) & mask,
        }
    }
}

/// Enters `id`, whose slot is set, into the index; every id below it is
/// there already. When `id` would take the current generation past half
/// full, the next one is filled with every id up to `id` and then
/// published. Called with the writer lock held.
fn enter(id: u32) {
    let g = GENERATION.load(Ordering::Relaxed);
    let table = |g: usize| INDEX.get(g).map(|t| t.get_or_init(|| cells(g)));
    let Some(current) = table(g) else {
        return;
    };
    if 2 * (id as usize + 1) <= current.len() {
        return place(current, id);
    }
    let Some(next) = table(g + 1) else {
        return place(current, id);
    };
    for old in 0..=id {
        place(next, old);
    }
    GENERATION.store(g + 1, Ordering::Release);
}

/// Generation `g`'s cells, all empty.
fn cells(g: usize) -> Box<[AtomicU32]> {
    (0..1usize << (g + INDEX_BITS as usize))
        .map(|_| AtomicU32::new(0))
        .collect()
}

impl Symbol {
    /// Interns a string, returning its symbol (idempotent). A string
    /// met before is found taking no lock.
    pub fn intern(s: &str) -> Symbol {
        if let Some(id) = find(s) {
            return Symbol(id);
        }
        let _writer = WRITER.lock().unwrap_or_else(PoisonError::into_inner);
        // Writers are serialised by the lock, so `LEN` cannot move under us.
        let mut id = LEN.load(Ordering::Relaxed);
        // A writer that died after setting its slot left a string the
        // length does not count: adopt it, so the id is not handed out twice.
        while let Some(&orphan) = slot_for_write(id).get() {
            enter(id);
            BYTES.fetch_add(orphan.len(), Ordering::Relaxed);
            id += 1;
            LEN.store(id, Ordering::Release);
        }
        if let Some(id) = find(s) {
            return Symbol(id); // raced: someone else interned it
        }
        let leaked: &'static str = Box::leak(s.into());
        // The slot is empty (checked above, under the lock), so `set` holds.
        let _ = slot_for_write(id).set(leaked);
        enter(id);
        BYTES.fetch_add(leaked.len(), Ordering::Relaxed);
        LEN.store(id + 1, Ordering::Release);
        Symbol(id)
    }

    /// The interned string, read from the id → string table without taking
    /// a lock: three loads (directory chunk, leaf, slot) and no contention
    /// with concurrent [`Symbol::intern`] calls.
    ///
    /// A `Symbol` only comes out of [`Symbol::intern`], which sets the slot
    /// before it returns the id, so the slot of a symbol in hand is always
    /// set; the empty-string arm keeps the read path free of panics and is
    /// not reachable through this API.
    pub fn as_str(self) -> &'static str {
        published(self.0).unwrap_or_default()
    }

    /// The raw id (stable within a process run only).
    pub fn id(self) -> u32 {
        self.0
    }

    /// The symbol of an id this process has handed out, else `None`: the
    /// inverse of [`Symbol::id`], for decoding a [`crate::Tuple`]'s
    /// encoded form.
    pub(crate) fn from_id(id: u32) -> Option<Symbol> {
        published(id).map(|_| Symbol(id))
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::intern(&s)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({} {:?})", self.0, self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of distinct names interned so far (diagnostics).
pub fn interned_count() -> usize {
    LEN.load(Ordering::Acquire) as usize
}

/// Total bytes held by the arena's names (diagnostics).
pub fn interned_bytes() -> usize {
    BYTES.load(Ordering::Relaxed)
}

/// Value dictionaries made and not yet freed (a statistic: `Relaxed`).
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Number of value dictionaries not freed yet (diagnostics): once every
/// relation an evaluation made is dropped, its dictionary is not counted.
pub fn live_dicts() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// A value dictionary: strings and the dense `u32` codes they were given,
/// in the order they were first met (see the module docs). Share it as an
/// `Arc<Dict>`; `Arc::default()` makes a new one.
pub struct Dict {
    strings: Mutex<Strings>,
}

impl Dict {
    /// An empty dictionary.
    pub fn new() -> Dict {
        LIVE.fetch_add(1, Ordering::Relaxed);
        Dict {
            strings: Mutex::new(Strings::default()),
        }
    }

    /// The strings, locked. A panic while they were held left them as
    /// they were after their last append, so a poisoned lock is recovered.
    pub(crate) fn lock(&self) -> MutexGuard<'_, Strings> {
        self.strings.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The code of `s`, appended if `s` is new.
    pub fn code(&self, s: &str) -> u32 {
        self.lock().code(s)
    }

    /// The code of `s` if it has one; never appends. `None` means no cell
    /// built in this dictionary holds `s`.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.lock().lookup(s.as_bytes())
    }

    /// The string of `code`, copied; empty for a code never given.
    pub fn string(&self, code: u32) -> String {
        self.with_str(code, str::to_owned)
    }

    /// `f` of the string of `code`, read in place under the lock: `f` must
    /// not use this dictionary.
    pub fn with_str<R>(&self, code: u32, f: impl FnOnce(&str) -> R) -> R {
        f(self.lock().get(code))
    }
}

impl Default for Dict {
    fn default() -> Self {
        Dict::new()
    }
}

impl Drop for Dict {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

impl fmt::Debug for Dict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.lock();
        write!(f, "Dict({} strings, {} bytes)", s.ends.len(), s.text.len())
    }
}

/// A dictionary's first index cells and string bytes.
const FIRST_CELLS: usize = 128;
const FIRST_TEXT: usize = 1 << 10;

/// What a [`Dict`]'s lock guards.
#[derive(Default, Clone)]
pub(crate) struct Strings {
    /// Every string, end to end, in code order.
    text: String,
    /// Where code `c`'s string ends in `text`; it starts where `c − 1`'s ends.
    ends: Vec<usize>,
    /// A power of two of cells, at most half of them taken once any is: 0
    /// while empty, else the low 32 bits of the string's hash above its
    /// code + 1. A probe compares strings only where the hash bits agree,
    /// and growing rehashes nothing.
    index: Vec<u64>,
}

impl Strings {
    /// The string of `code`; empty for a code never given.
    pub(crate) fn get(&self, code: u32) -> &str {
        let c = code as usize;
        let Some(&end) = self.ends.get(c) else {
            return "";
        };
        let start = c.checked_sub(1).map_or(0, |p| self.ends[p]);
        self.text.get(start..end).unwrap_or_default()
    }

    /// The code of `bytes`, or the empty cell their probe ended at.
    fn probe(&self, bytes: &[u8], h: u32) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let mut at = h as usize & mask;
        for _ in 0..self.index.len() {
            let cell = self.index[at];
            if cell == 0 {
                break;
            }
            let code = (cell as u32).wrapping_sub(1);
            if (cell >> 32) as u32 == h && self.get(code).as_bytes() == bytes {
                return Ok(code);
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    /// The code of `bytes`, if they have one.
    pub(crate) fn lookup(&self, bytes: &[u8]) -> Option<u32> {
        if self.index.is_empty() {
            return None;
        }
        self.probe(bytes, keys().hash_one(bytes) as u32).ok()
    }

    /// The code of `bytes`; if they are new, the code they are appended
    /// under once `checked` has turned them into a string, or `None` when
    /// `checked` refuses them (or the codes have run out).
    fn entry<'b>(
        &mut self,
        bytes: &'b [u8],
        checked: impl FnOnce(&'b [u8]) -> Option<&'b str>,
    ) -> Option<u32> {
        let h = keys().hash_one(bytes) as u32;
        if 2 * (self.ends.len() + 1) > self.index.len() {
            self.grow();
        }
        let at = match self.probe(bytes, h) {
            Ok(code) => return Some(code),
            Err(at) => at,
        };
        let code = u32::try_from(self.ends.len())
            .ok()
            .filter(|&c| c < u32::MAX)?;
        self.text.push_str(checked(bytes)?);
        self.ends.push(self.text.len());
        self.index[at] = u64::from(h) << 32 | u64::from(code + 1);
        Some(code)
    }

    /// The code of `s`, appended if `s` is new.
    pub(crate) fn code(&mut self, s: &str) -> u32 {
        self.entry(s.as_bytes(), |_| Some(s)).unwrap_or_default()
    }

    /// The code of `bytes`; if they are new, appended once they are
    /// checked to be UTF-8, else `None`.
    pub(crate) fn code_of_utf8(&mut self, bytes: &[u8]) -> Option<u32> {
        self.entry(bytes, |b| std::str::from_utf8(b).ok())
    }

    /// Doubles the index, moving each cell to where its hash bits now
    /// probe from. The first time, it makes room for the few dozen strings
    /// a small evaluation meets in three allocations, not a dozen
    /// doublings.
    fn grow(&mut self) {
        if self.index.is_empty() {
            self.text.reserve(FIRST_TEXT);
            self.ends.reserve(FIRST_CELLS / 2);
        }
        let cells = (2 * self.index.len()).max(FIRST_CELLS);
        let mask = cells - 1;
        let mut index = vec![0u64; cells];
        for &cell in self.index.iter().filter(|&&c| c != 0) {
            let mut at = (cell >> 32) as usize & mask;
            while index[at] != 0 {
                at = (at + 1) & mask;
            }
            index[at] = cell;
        }
        self.index = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The symbol of `s` if one was handed out, without interning it.
    fn lookup(s: &str) -> Option<Symbol> {
        find(s).map(Symbol)
    }

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("ProfPage.PName");
        let b = Symbol::intern("ProfPage.PName");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "ProfPage.PName");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(lookup("intern-test-never-interned-xyzzy").is_none());
        let s = Symbol::intern("intern-test-lookup");
        assert_eq!(lookup("intern-test-lookup"), Some(s));
    }

    /// Codes are dense, in first-seen order, and found again by string or
    /// by bytes across the index's growths; a lookup appends nothing.
    #[test]
    fn a_dictionary_codes_strings_densely_and_finds_them_again() {
        let dict = Dict::new();
        let name = |j: usize| format!("dict-{j}");
        for j in 0..1_000 {
            assert_eq!(dict.code(&name(j)), j as u32);
        }
        assert_eq!(dict.code(""), 1_000, "the empty string is a value");
        for j in 0..1_000 {
            assert_eq!(dict.lookup(&name(j)), Some(j as u32));
            assert_eq!(dict.code(&name(j)), j as u32);
            assert_eq!(dict.string(j as u32), name(j));
        }
        assert_eq!(dict.lookup("dict-never"), None);
        let s = dict.lock();
        assert_eq!(s.ends.len(), 1_001);
        assert_eq!(s.text.len(), (0..1_000).map(|j| name(j).len()).sum());
        drop(s);
        assert_eq!(dict.string(5_000), "", "a code never given");
        let mut s = dict.lock();
        assert_eq!(s.code_of_utf8("dict-7".as_bytes()), Some(7));
        // Bytes met before are not checked again; new ones are.
        assert_eq!(s.code_of_utf8(&[0xff, 0xfe]), None);
        assert_eq!(s.code_of_utf8("naïve".as_bytes()), Some(1_001));
        assert_eq!(s.get(1_001), "naïve");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Symbol::intern(&format!("conc-{}", (i + j) % 50)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // same string → same symbol, across threads
        for syms in &all {
            for s in syms {
                assert_eq!(Symbol::intern(s.as_str()), *s);
            }
        }
    }

    #[test]
    fn strings_are_found_across_index_generations() {
        // Fresh strings until the index has grown at least once, wherever
        // the other tests have left it: the first of them were entered in
        // a generation readers no longer probe.
        let name = |j: usize| format!("intern-generation-{j}");
        let first = GENERATION.load(Ordering::Acquire);
        let mut syms = Vec::new();
        while GENERATION.load(Ordering::Acquire) == first || syms.len() < 2_000 {
            syms.push(Symbol::intern(&name(syms.len())));
        }
        for (j, sym) in syms.iter().enumerate() {
            assert_eq!(sym.as_str(), name(j));
            assert_eq!(lookup(&name(j)), Some(*sym));
            assert_eq!(Symbol::intern(&name(j)), *sym);
        }
        assert!(lookup("intern-generation-never").is_none());
        every_counted_id_is_found();
    }

    /// Every id the length counts is found by its string, whichever writer
    /// entered it and whichever generation it was entered in.
    fn every_counted_id_is_found() {
        for id in 0..interned_count() as u32 {
            let s = published(id).unwrap();
            assert_eq!(find(s), Some(id), "{s:?} is missing from the index");
        }
    }

    /// Readers look known strings up, intern them again and read them
    /// back while a writer mints strings until the index has grown twice:
    /// every probe finds its string's id, in whichever generation it
    /// reads, and a string never interned stays unknown.
    #[test]
    fn readers_probe_while_the_index_grows() {
        use std::time::{Duration, Instant};

        let known: Vec<(String, Symbol)> = (0..256)
            .map(|j| format!("intern-known-{j}"))
            .map(|s| (s.clone(), Symbol::intern(&s)))
            .collect();
        let name = |j: usize| format!("intern-growth-{j}");
        let first = GENERATION.load(Ordering::Acquire);
        let done = std::sync::atomic::AtomicBool::new(false);
        let t0 = Instant::now();
        let minted: Vec<Symbol> = std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // At least one pass, and none once the writer is done.
                    let mut passes = 0;
                    while passes == 0 || !done.load(Ordering::Acquire) {
                        for (string, sym) in &known {
                            assert_eq!(lookup(string), Some(*sym));
                            assert_eq!(Symbol::intern(string), *sym);
                            assert_eq!(sym.as_str(), string);
                        }
                        assert!(lookup("intern-growth-never").is_none());
                        assert!(t0.elapsed() < Duration::from_secs(60), "the writer stalled");
                        passes += 1;
                    }
                });
            }
            let minted = (0..)
                .map(|j| Symbol::intern(&name(j)))
                .take_while(|_| GENERATION.load(Ordering::Acquire) < first + 2)
                .collect();
            done.store(true, Ordering::Release);
            minted
        });
        assert!(GENERATION.load(Ordering::Acquire) >= first + 2);
        for (j, sym) in minted.iter().enumerate() {
            assert_eq!(sym.as_str(), name(j));
            assert_eq!(lookup(&name(j)), Some(*sym));
        }
        every_counted_id_is_found();
    }

    #[test]
    fn ids_map_onto_leaves_under_a_doubling_directory() {
        assert_eq!(locate(0), (0, 0, 0));
        assert_eq!(locate(1023), (0, 0, 1023));
        assert_eq!(locate(1024), (0, 1, 0));
        assert_eq!(locate(4095), (0, 3, 1023));
        assert_eq!(locate(4096), (1, 0, 0));
        assert_eq!(locate(12 * 1024 - 1), (1, 7, 1023));
        assert_eq!(locate(12 * 1024), (2, 0, 0));
        assert_eq!(locate(u32::MAX), (CHUNKS - 1, 3, 1023));
    }

    #[test]
    fn counters_follow_interning() {
        let (count, bytes) = (interned_count(), interned_bytes());
        Symbol::intern("intern-test-counted-once");
        Symbol::intern("intern-test-counted-once");
        // other tests intern beside this one: at least ours, exactly once
        assert!(interned_count() > count);
        assert!(interned_bytes() >= bytes + "intern-test-counted-once".len());
    }

    /// Readers hammer `as_str` below a moving watermark while a writer
    /// interns across leaf and directory-chunk boundaries; then, with the writer lock
    /// *held*, they read everything again — a read path that took the lock
    /// would never finish.
    #[test]
    fn as_str_reads_published_slots_without_the_lock() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        // Enough fresh strings to cross leaf boundaries and one directory
        // chunk boundary, wherever the other tests of this process have
        // left the table.
        let first = interned_count() as u32;
        let mut n = 5_000;
        while locate(first + n as u32).0 == locate(first).0 {
            n += 1 << LEAF_BITS;
        }
        let name = |j: usize| format!("intern-stress-{j}");
        let ids: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
        let done = AtomicUsize::new(0);

        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| loop {
                    // `Acquire` pairs with the writer's `Release`: the ids
                    // below the watermark were returned by `intern`.
                    let watermark = done.load(Ordering::Acquire);
                    for (j, id) in ids[..watermark].iter().enumerate() {
                        assert_eq!(Symbol(id.load(Ordering::Relaxed)).as_str(), name(j));
                    }
                    // Every id the length counts has its slot set.
                    for id in 0..interned_count() as u32 {
                        assert!(published(id).is_some(), "empty slot at id {id}");
                    }
                    if watermark == n {
                        break;
                    }
                });
            }
            s.spawn(|| {
                for (j, id) in ids.iter().enumerate() {
                    id.store(Symbol::intern(&name(j)).0, Ordering::Relaxed);
                    done.store(j + 1, Ordering::Release);
                }
            });
        });
        let (lo, hi) = (
            ids[0].load(Ordering::Relaxed),
            ids[n - 1].load(Ordering::Relaxed),
        );
        assert!(
            locate(hi).0 > locate(lo).0,
            "ids {lo}..{hi}: one directory chunk"
        );
        assert!(
            hi - lo >= 4 << LEAF_BITS,
            "ids {lo}..{hi}: under five leaves"
        );

        all_finish_under_the_writer_lock(move || {
            (ids.iter().enumerate())
                .all(|(j, id)| Symbol(id.load(Ordering::Relaxed)).as_str() == name(j))
        });
    }

    /// Runs `check` on 8 threads while this thread holds the writer lock,
    /// failing unless each returns true within 60 s: a check that took
    /// the lock would never finish.
    fn all_finish_under_the_writer_lock(check: impl Fn() -> bool + Clone + Send + 'static) {
        use std::sync::mpsc;
        use std::time::Duration;

        let writer = WRITER.lock().unwrap_or_else(PoisonError::into_inner);
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let (check, tx) = (check.clone(), tx.clone());
            std::thread::spawn(move || {
                let _ = tx.send(check());
            });
        }
        for _ in 0..8 {
            let ok = rx.recv_timeout(Duration::from_secs(60));
            assert_eq!(ok, Ok(true), "a reader blocked on the lock or misread");
        }
        drop(writer);
    }

    /// A string met before is interned, and looked up, with the writer
    /// lock held elsewhere: the common case never waits on a writer.
    #[test]
    fn a_known_string_is_interned_and_looked_up_without_the_lock() {
        let name = |j: usize| format!("intern-known-under-lock-{j}");
        let syms: Vec<Symbol> = (0..2_000).map(|j| Symbol::intern(&name(j))).collect();
        all_finish_under_the_writer_lock(move || {
            syms.iter()
                .enumerate()
                .all(|(j, sym)| Symbol::intern(&name(j)) == *sym && lookup(&name(j)) == Some(*sym))
        });
    }

    /// The write path stores slot, index cell, length — in that order. A
    /// writer that dies after the first store, or after the second,
    /// poisons the lock and leaves a slot the length does not count; the
    /// next writer recovers the guard and adopts the slot instead of
    /// handing its id out again.
    #[test]
    fn a_writer_that_dies_between_its_stores_leaves_the_arena_consistent() {
        const ORPHANS: [&str; 2] = ["intern-test-orphan-indexed", "intern-test-orphan"];
        let died = std::thread::spawn(|| {
            let _writer = WRITER.lock().unwrap_or_else(PoisonError::into_inner);
            let id = LEN.load(Ordering::Relaxed);
            // The first orphan reached the index, the second only its slot.
            slot_for_write(id).set(ORPHANS[0]).unwrap();
            enter(id);
            slot_for_write(id + 1).set(ORPHANS[1]).unwrap();
            panic!("a writer dies holding the lock (this test's doing)");
        })
        .join();
        assert!(died.is_err());
        assert!(WRITER.is_poisoned());

        let fresh = Symbol::intern("intern-test-after-the-orphans");
        assert_eq!(fresh.as_str(), "intern-test-after-the-orphans");
        let orphans = ORPHANS.map(|s| lookup(s).unwrap()); // adopted
        assert_eq!(orphans[0].id() + 1, orphans[1].id());
        for (orphan, s) in orphans.into_iter().zip(ORPHANS) {
            assert_eq!(orphan.as_str(), s);
            assert_ne!(orphan, fresh);
            assert_eq!(Symbol::intern(s), orphan);
        }
        assert_eq!(Symbol::intern("intern-test-after-the-orphans"), fresh);
        assert!(interned_count() > orphans[1].id() as usize);
    }
}
