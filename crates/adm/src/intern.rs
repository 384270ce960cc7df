//! Interning: a name becomes a process-wide [`Symbol`]; a value becomes
//! a code in a [`Dict`] that is freed with the relations that use it.
//!
//! # Names: one locked table
//!
//! Attribute names, page-scheme names and the column names an evaluation
//! qualifies them into become [`Symbol`]s in one process-wide table. The
//! names come from page-schemes a designer fixes in advance and from the
//! aliases queries give them, so they form a small, closed set: a process
//! interns a few dozen to a few hundred, nearly all while it sets up. No
//! text or link value ever enters the table, so [`interned_count`] and
//! [`interned_bytes`] stay flat however many pages a process reads or
//! edits.
//!
//! A name's entry — its id and its string — is leaked once, when the name
//! is first met, and a [`Symbol`] is a `&'static` reference to it. Reading
//! a symbol's string or id is therefore one load that no other thread
//! writes, and two symbols are equal when they point at the same entry.
//! [`Symbol::intern`], the id → symbol direction (`Symbol::from_id`, for
//! decoding an encoded tuple) and the two counters take the table's
//! `Mutex`, which guards a map from string to symbol, the symbols by id,
//! and the bytes they hold.
//!
//! Interning a new name reserves room in both collections before it
//! writes anything, so a panic inside the lock leaves the table as it was
//! after its last complete entry. A poisoned lock is therefore recovered,
//! never propagated, and nothing in this module panics.
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

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};

/// An interned name: a reference to its entry in the process-wide table.
///
/// Equality of symbols is equality of the underlying strings (one entry a
/// string); hashing hashes the id. Symbols are deliberately *not* `Ord`:
/// ids reflect interning order, not lexicographic order, and must never
/// drive output ordering.
#[derive(Clone, Copy)]
pub struct Symbol(&'static Entry);

/// A name's id and string, leaked when the name is first met.
struct Entry {
    id: u32,
    name: Box<str>,
}

/// What the table's lock guards.
#[derive(Default)]
struct Names {
    ids: HashMap<&'static str, Symbol>,
    by_id: Vec<Symbol>,
    bytes: usize,
}

static NAMES: LazyLock<Mutex<Names>> = LazyLock::new(Mutex::default);

/// The table, locked. A panic while it was held left it as it was after
/// its last complete entry (see the module docs), so a poisoned lock is
/// recovered.
fn names() -> MutexGuard<'static, Names> {
    NAMES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The hash keys, drawn once a process: value strings come from web pages.
fn keys() -> &'static RandomState {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    KEYS.get_or_init(RandomState::new)
}

impl Symbol {
    /// Interns a string, returning its symbol (idempotent).
    pub fn intern(s: &str) -> Symbol {
        let mut names = names();
        if let Some(&sym) = names.ids.get(s) {
            return sym;
        }
        // Everything that can fail happens before the first write.
        names.ids.reserve(1);
        names.by_id.reserve(1);
        let entry: &'static Entry = Box::leak(Box::new(Entry {
            id: names.by_id.len() as u32,
            name: s.into(),
        }));
        let sym = Symbol(entry);
        names.by_id.push(sym);
        names.ids.insert(&*entry.name, sym);
        names.bytes += s.len();
        sym
    }

    /// The interned string: read from the symbol's own entry, taking no
    /// lock.
    pub fn as_str(self) -> &'static str {
        &self.0.name
    }

    /// The raw id (stable within a process run only).
    pub fn id(self) -> u32 {
        self.0.id
    }

    /// The symbol of an id this process has handed out, else `None`: the
    /// inverse of [`Symbol::id`], for decoding a [`crate::Tuple`]'s
    /// encoded form.
    pub(crate) fn from_id(id: u32) -> Option<Symbol> {
        names().by_id.get(id as usize).copied()
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
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
        write!(f, "Symbol({} {:?})", self.id(), self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of distinct names interned so far (diagnostics).
pub fn interned_count() -> usize {
    names().by_id.len()
}

/// Total bytes of the interned names (diagnostics).
pub fn interned_bytes() -> usize {
    names().bytes
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
        names().ids.get(s).copied()
    }

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("ProfPage.PName");
        let b = Symbol::intern("ProfPage.PName");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "ProfPage.PName");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn lookup_does_not_intern() {
        assert!(lookup("intern-test-never-interned-xyzzy").is_none());
        let s = Symbol::intern("intern-test-lookup");
        assert_eq!(lookup("intern-test-lookup"), Some(s));
    }

    #[test]
    fn from_id_inverts_id() {
        let syms: Vec<Symbol> = (0..100)
            .map(|j| Symbol::intern(&format!("intern-test-id-{j}")))
            .collect();
        for sym in syms {
            assert_eq!(Symbol::from_id(sym.id()), Some(sym));
            assert_eq!(
                Symbol::from_id(sym.id()).map(Symbol::as_str),
                Some(sym.as_str())
            );
        }
        // Every id below the count is handed out, and none at or above it.
        let count = interned_count() as u32;
        assert!((0..count).all(|id| Symbol::from_id(id).is_some_and(|s| s.id() == id)));
        assert_eq!(Symbol::from_id(u32::MAX), None);
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
                assert_eq!(Symbol::from_id(s.id()), Some(*s));
            }
        }
    }

    #[test]
    fn counters_follow_interning() {
        let (count, bytes) = (interned_count(), interned_bytes());
        Symbol::intern("intern-test-counted-once");
        Symbol::intern("intern-test-counted-once");
        // other tests intern beside this one: at least ours, exactly once
        assert!(interned_count() > count);
        assert!(interned_bytes() >= bytes + "intern-test-counted-once".len());
        let names = names();
        assert_eq!(names.by_id.len(), names.ids.len());
        let held: usize = names.by_id.iter().map(|s| s.as_str().len()).sum();
        assert_eq!(names.bytes, held);
    }

    /// A thread that panics holding the table's lock poisons it; the next
    /// `intern` recovers the guard and finds the table as it was.
    #[test]
    fn a_panic_under_the_lock_leaves_a_table_the_next_intern_uses() {
        let before = Symbol::intern("intern-test-before-the-panic");
        let died = std::thread::spawn(|| {
            let _names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("a thread dies holding the lock (this test's doing)");
        })
        .join();
        assert!(died.is_err());
        assert!(NAMES.is_poisoned());
        let after = Symbol::intern("intern-test-after-the-panic");
        assert_eq!(after.as_str(), "intern-test-after-the-panic");
        assert_ne!(after, before);
        assert_eq!(Symbol::intern("intern-test-before-the-panic"), before);
        assert_eq!(Symbol::from_id(after.id()), Some(after));
        assert_eq!(lookup("intern-test-after-the-panic"), Some(after));
    }
}
