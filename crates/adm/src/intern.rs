//! Global string interner: attribute names, page-scheme names, and URLs
//! become `u32` [`Symbol`] ids behind a process-wide arena.
//!
//! Interning turns the evaluator's per-row `String`/`Url` comparisons and
//! clones into `u32` copies. The arena leaks its strings (`&'static str`),
//! which is bounded by the working vocabulary of a process — attribute
//! names, scheme names, and the distinct URLs it has touched — and lets
//! [`Symbol::as_str`] hand out references without lifetimes.
//!
//! # Two structures, one lock
//!
//! *string → id* is two hash tables behind one lock, probed in order. The
//! first 57,344 strings (`EARLY`) — the working vocabulary: names, URLs, values
//! a site starts with — are `(&str, id)` pairs, the cheapest entry to hit.
//! Every later string is an id alone, hashed and compared as its string
//! through the table below: 5 bytes an entry where a pair is 25, and three
//! more loads a hit (with every entry an id, `hot_navigate` lost 5 %). The
//! arena never frees, a workload that mints strings (edit markers on
//! `view_maintain`) grows it for as long as it runs, and a std table that
//! doubles holds old and new side by side while it does — as pairs, 6.5 MB
//! at 115 k strings, a fifth of that workload's peak RSS, paid by whichever
//! run completed enough rounds. [`Symbol::intern`] and [`Symbol::lookup`]
//! read the tables shared, and only a string met for the first time takes
//! the lock exclusively. *id → string* is an append-only table of
//! write-once slots — leaves of 1024 under a directory that grows in
//! doubling chunks, so nothing ever moves — which [`Symbol::as_str`] reads
//! with no lock at all. A writer, under the exclusive lock, stores in this
//! order: the string's **slot**, then the **map** entry, then the
//! **length**. A symbol is only ever handed out after its slot is set, so
//! a reader that holds one finds its string; and because the length is
//! the last store, a writer that dies between two of them leaves a slot
//! the length does not count yet, which the next writer adopts — a
//! poisoned lock is therefore recovered, never propagated, and nothing in
//! this module panics.
//!
//! # Determinism
//!
//! Symbol ids depend on interning *order*, which under concurrent fetch can
//! differ between runs. Ids are therefore only ever used for **equality**
//! (hash keys, dedup, join probes) — never for ordering or output. Any
//! ordering visible to a caller is derived from the underlying strings.

use crate::url::Url;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string: a `u32` id into the global arena.
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
/// Ids handed out so far. Stored (`Release`) after the slot and the map
/// entry of the newest id; an `Acquire` load of `n` therefore sees the
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
/// if this is their first id. Called with the map's write lock held.
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

/// How many strings get a pair entry: 7/8 of 65,536 buckets, the most a
/// std table of that size holds, so the pair table stops at 1.6 MB.
const EARLY: usize = 57_344;

/// A late entry: the id, standing for its string. It is only ever inserted
/// after its slot is set, so the string is there to hash and compare; two
/// entries are the same string exactly when they are the same id, because
/// a string is interned once.
#[derive(PartialEq, Eq)]
struct ById(u32);

impl Borrow<str> for ById {
    fn borrow(&self) -> &str {
        published(self.0).unwrap_or_default()
    }
}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Borrow::<str>::borrow(self).hash(state)
    }
}

/// The string → id map (see the module docs).
#[derive(Default)]
struct Ids {
    early: HashMap<&'static str, u32>,
    late: HashSet<ById>,
}

impl Ids {
    fn get(&self, s: &str) -> Option<u32> {
        let early = self.early.get(s).copied();
        early.or_else(|| self.late.get(s).map(|&ById(id)| id))
    }

    /// Enters `id`, whose slot holds `s`.
    fn insert(&mut self, s: &'static str, id: u32) {
        if self.early.len() < EARLY {
            self.early.insert(s, id);
        } else {
            self.late.insert(ById(id));
        }
    }
}

fn map() -> &'static RwLock<Ids> {
    static MAP: OnceLock<RwLock<Ids>> = OnceLock::new();
    MAP.get_or_init(Default::default)
}

impl Symbol {
    /// Interns a string, returning its symbol (idempotent).
    pub fn intern(s: &str) -> Symbol {
        if let Some(sym) = Symbol::lookup(s) {
            return sym;
        }
        let mut map = map().write().unwrap_or_else(PoisonError::into_inner);
        // Writers are serialised by the lock, so `LEN` cannot move under us.
        let mut id = LEN.load(Ordering::Relaxed);
        // A writer that died after setting its slot left a string the
        // length does not count: adopt it, so the id is not handed out twice.
        while let Some(&orphan) = slot_for_write(id).get() {
            map.insert(orphan, id);
            BYTES.fetch_add(orphan.len(), Ordering::Relaxed);
            id += 1;
            LEN.store(id, Ordering::Release);
        }
        if let Some(id) = map.get(s) {
            return Symbol(id); // raced: someone else interned it
        }
        let leaked: &'static str = Box::leak(s.into());
        // The slot is empty (checked above, under the lock), so `set` holds.
        let _ = slot_for_write(id).set(leaked);
        map.insert(leaked, id);
        BYTES.fetch_add(leaked.len(), Ordering::Relaxed);
        LEN.store(id + 1, Ordering::Release);
        Symbol(id)
    }

    /// Looks a string up *without* interning it. `None` means no symbol for
    /// this string exists yet — useful for constants in predicates: if the
    /// constant was never interned, no stored value can equal it.
    pub fn lookup(s: &str) -> Option<Symbol> {
        let map = map().read().unwrap_or_else(PoisonError::into_inner);
        map.get(s).map(Symbol)
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

    /// Interns a URL (by its string form).
    pub fn from_url(u: &Url) -> Symbol {
        Symbol::intern(u.as_str())
    }

    /// The interned string as a fresh [`Url`] (lock-free, like
    /// [`Symbol::as_str`]; allocates the URL's string).
    pub fn to_url(self) -> Url {
        Url::new(self.as_str())
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

/// Number of distinct strings interned so far (diagnostics).
pub fn interned_count() -> usize {
    LEN.load(Ordering::Acquire) as usize
}

/// Total bytes held by the arena's strings (diagnostics).
pub fn interned_bytes() -> usize {
    BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(Symbol::lookup("intern-test-never-interned-xyzzy").is_none());
        let s = Symbol::intern("intern-test-lookup");
        assert_eq!(Symbol::lookup("intern-test-lookup"), Some(s));
    }

    #[test]
    fn url_round_trip() {
        let u = Url::new("/dept/1");
        let s = Symbol::from_url(&u);
        assert_eq!(s.to_url(), u);
        assert_eq!(s.as_str(), "/dept/1");
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
    fn strings_past_the_early_table_are_found_by_their_id() {
        // More fresh strings than the pair table holds: wherever the other
        // tests have left it, the last of these are late entries.
        let name = |j: usize| format!("intern-late-{j}");
        let syms: Vec<Symbol> = (0..EARLY + 2_000)
            .map(|j| Symbol::intern(&name(j)))
            .collect();
        {
            let ids = map().read().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(ids.early.len(), EARLY, "the pair table stops growing");
            assert!(ids.late.len() >= 2_000);
            assert!(ids.late.contains(name(EARLY + 1_999).as_str()));
        }
        for (j, sym) in syms
            .iter()
            .enumerate()
            .step_by(97)
            .chain(syms.iter().enumerate().skip(EARLY))
        {
            assert_eq!(sym.as_str(), name(j));
            assert_eq!(Symbol::lookup(&name(j)), Some(*sym));
            assert_eq!(Symbol::intern(&name(j)), *sym);
        }
        assert!(Symbol::lookup("intern-late-never").is_none());
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
    /// interns across leaf and directory-chunk boundaries; then, with the map's write lock
    /// *held*, they read everything again — a read path that took the lock
    /// would never finish.
    #[test]
    fn as_str_reads_published_slots_without_the_lock() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::{mpsc, Arc};
        use std::time::Duration;

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

        let guard = map().write().unwrap_or_else(PoisonError::into_inner);
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let (ids, tx) = (Arc::clone(&ids), tx.clone());
            std::thread::spawn(move || {
                let ok = (ids.iter().enumerate())
                    .all(|(j, id)| Symbol(id.load(Ordering::Relaxed)).as_str() == name(j));
                let _ = tx.send(ok);
            });
        }
        for _ in 0..8 {
            let ok = rx.recv_timeout(Duration::from_secs(60));
            assert_eq!(ok, Ok(true), "a reader blocked on the lock or misread");
        }
        drop(guard);
    }

    /// The write path stores slot, map entry, length — in that order. A
    /// writer that dies after the first store poisons the lock and leaves
    /// a slot the length does not count; the next writer recovers the
    /// guard and adopts the slot instead of handing its id out again.
    #[test]
    fn a_writer_that_dies_between_its_stores_leaves_the_arena_consistent() {
        let died = std::thread::spawn(|| {
            let _guard = map().write().unwrap_or_else(PoisonError::into_inner);
            let id = LEN.load(Ordering::Relaxed);
            slot_for_write(id).set("intern-test-orphan").unwrap();
            panic!("a writer dies holding the lock (this test's doing)");
        })
        .join();
        assert!(died.is_err());
        assert!(map().is_poisoned());

        let fresh = Symbol::intern("intern-test-after-the-orphan");
        assert_eq!(fresh.as_str(), "intern-test-after-the-orphan");
        let orphan = Symbol::lookup("intern-test-orphan").unwrap(); // adopted
        assert_eq!(orphan.as_str(), "intern-test-orphan");
        assert_ne!(orphan, fresh);
        assert_eq!(Symbol::intern("intern-test-orphan"), orphan);
        assert_eq!(Symbol::intern("intern-test-after-the-orphan"), fresh);
    }
}
