//! The access boundary: everything the engine knows of a site.
//!
//! The paper's engine reaches a site through two calls — a page download
//! and a "light connection" that returns an error flag and a Last-Modified
//! date — and a maintenance process may also read the site's change feed.
//! This module declares those calls once, as traits the rest of the system
//! only ever calls:
//!
//! * [`PageServer`] — `GET` ([`PageResponse`]), `HEAD` ([`HeadResponse`])
//!   and the server's logical clock; `websim::VirtualServer` implements it;
//! * [`PageSource`] — a page already wrapped into its ADM tuple, what the
//!   evaluator navigates over;
//! * [`ChangeFeed`] — the site's mutation log ([`SiteChange`]), read from a
//!   reader's [`FeedCursor`]; `websim::Site` implements it;
//! * [`SourceError`] — the one access error both request traits return.
//!   "Gone" is exactly [`SourceError::NotFound`]; every other error leaves
//!   a page's existence open.

use adm::{Tuple, Url};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The one access error: what a [`PageServer`] request or a [`PageSource`]
/// fetch may return, split into the taxonomy the resilience layer acts on: **transient** failures (a retry may succeed)
/// versus **permanent** ones (retrying is pointless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The page does not exist (dangling link / deleted page; HTTP 404).
    /// Permanent, and the only error that says a page is gone.
    NotFound(Url),
    /// The server failed transiently (5xx analogue; a server reports the
    /// status as `reason: "http 503"`). Transient.
    Unavailable {
        /// The URL that failed.
        url: Url,
        /// Human-readable failure detail.
        reason: String,
    },
    /// The request timed out. Transient.
    Timeout(Url),
    /// The page was delivered but could not be wrapped (truncated or
    /// corrupt body). Permanent for a given page version.
    Malformed {
        /// The URL whose body failed to parse.
        url: Url,
        /// Human-readable parse-failure detail.
        reason: String,
    },
    /// The fetch was cancelled cooperatively — the request's deadline
    /// expired, a relevance monitor proved the page cannot contribute
    /// an answer tuple, or the fetch layer shut down mid-wait.
    /// Permanent for this evaluation; retrying it would defeat the
    /// cancellation.
    Cancelled(Url),
    /// Anything else (infrastructure failure, …). Permanent.
    Other(String),
}

impl SourceError {
    /// True for failures a retry may fix (unavailable, timeout); false for
    /// permanent conditions (404, malformed body, everything else).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SourceError::Unavailable { .. } | SourceError::Timeout(_)
        )
    }

    /// The URL the error is about, when the error carries one.
    pub fn url(&self) -> Option<&Url> {
        match self {
            SourceError::NotFound(u) | SourceError::Timeout(u) | SourceError::Cancelled(u) => {
                Some(u)
            }
            SourceError::Unavailable { url, .. } | SourceError::Malformed { url, .. } => Some(url),
            SourceError::Other(_) => None,
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::NotFound(u) => write!(f, "not found: {u}"),
            SourceError::Unavailable { url, reason } => {
                write!(f, "unavailable: {url} ({reason})")
            }
            SourceError::Timeout(u) => write!(f, "timeout: {u}"),
            SourceError::Cancelled(u) => write!(f, "cancelled: {u}"),
            SourceError::Malformed { url, reason } => {
                write!(f, "malformed page: {url} ({reason})")
            }
            SourceError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// Response to a full `GET`.
#[derive(Debug, Clone)]
pub struct PageResponse {
    /// The page-scheme this URL belongs to.
    pub scheme: String,
    /// The HTML body, shared with the stored page.
    pub body: Arc<[u8]>,
    /// Logical last-modified stamp.
    pub last_modified: u64,
}

/// Response to a light `HEAD` connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadResponse {
    /// Logical last-modified stamp.
    pub last_modified: u64,
}

/// The server-side protocol surface — GET, HEAD, and the logical clock —
/// so maintenance code (crawling, URL-check, the `CheckMissing` sweep) and
/// the live page source run against any server: the simulated one, or a
/// wrapper that traces or retries around it.
pub trait PageServer {
    /// Full download (counted).
    fn get(&self, url: &Url) -> Result<PageResponse, SourceError>;
    /// Light connection (counted).
    fn head(&self, url: &Url) -> Result<HeadResponse, SourceError>;
    /// Current logical time of the underlying server.
    fn now(&self) -> u64;
}

/// Anything that can deliver the wrapped tuple of a page: the live virtual
/// web (`wv-core`'s adapter), a materialized store (`matview`), or a test
/// fixture.
///
/// **`Sync` is part of the contract.** A source may be called from several
/// threads at once — the workers of a [`crate::Fetch::Pool`], the sessions of a
/// server — so it keeps any state of its own behind atomics or locks. Every
/// source can therefore run under every [`crate::EvalPolicy`]; one that holds a
/// single store (matview's URL-checking source) serialises its calls with
/// one lock, and a pool over it still returns exactly the inline answer
/// and counters.
pub trait PageSource: Sync {
    /// Fetches and wraps the page at `url`, expected to be an instance of
    /// page-scheme `scheme`.
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError>;

    /// Like [`PageSource::fetch`], additionally reporting the server's
    /// Last-Modified stamp when the source knows it (used to stamp shared
    /// cache entries so URL-check protocols can invalidate stale copies).
    /// The default reports no stamp.
    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        self.fetch(url, scheme).map(|t| (t, None))
    }

    /// Like [`PageSource::fetch_stamped`], handing the page out behind an
    /// `Arc` — a wrapped page is immutable, so whoever holds one (a cache,
    /// a store, a coalesced flight) can give every reader a reference to
    /// its own copy instead of a copy.
    ///
    /// **Who calls it:** the evaluator, for every page it acquires, and the
    /// source wrappers on their way down to the source they wrap. **Who
    /// overrides it:** a source that *holds* pages (`CoalescingSource`,
    /// matview's URL-checking source over a `MatStore`) returns a clone of
    /// the `Arc` it keeps, and a wrapper that only forwards
    /// (`ResilientSource`) forwards this method too, so the reference
    /// survives the stack. A source that *produces* pages
    /// (`LiveSource`, a test fixture) implements `fetch` or `fetch_stamped`
    /// and inherits this default, which wraps what it produced.
    ///
    /// **Why the other two stay:** a producing source has no `Arc` to give
    /// and should not have to invent one, and an owning caller (the crawler,
    /// statistics collection) wants a `Tuple`; a holder answers those from
    /// `fetch_shared` plus the one copy such a caller asks for.
    fn fetch_shared(
        &self,
        url: &Url,
        scheme: &str,
    ) -> Result<(Arc<Tuple>, Option<u64>), SourceError> {
        self.fetch_stamped(url, scheme)
            .map(|(t, lm)| (Arc::new(t), lm))
    }
}

/// What happened to one page, as recorded in a site's change feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// The page was published at a URL that had no page before.
    Added,
    /// An existing page was re-published with new content.
    Edited,
    /// The page was removed from the server.
    Removed,
}

/// One entry of a site's change feed — the deterministic mutation log a
/// maintenance process can subscribe to instead of re-crawling the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteChange {
    /// Position in the feed (0-based, dense, absolute: trimming the feed
    /// never renumbers it).
    pub seq: u64,
    /// The page-scheme of the affected page.
    pub scheme: String,
    /// The affected URL.
    pub url: Url,
    /// What happened.
    pub kind: ChangeKind,
}

/// A registered reader's position in a change feed: the `seq` of the first
/// entry it has not consumed.
///
/// The feed keeps every entry at or after the lowest registered cursor and
/// drops the rest, so a reader owns its cursor and the feed only watches it:
/// [`ChangeFeed::changes_for`] registers the cursor on first use, the reader
/// [`set`](FeedCursor::set)s it forward once a batch is applied, and dropping
/// the `FeedCursor` releases the hold (the feed keeps a [`FeedCursor::watch`]
/// handle).
#[derive(Debug, Default)]
pub struct FeedCursor(Arc<AtomicU64>);

impl FeedCursor {
    /// A cursor at `at` (typically [`ChangeFeed::change_cursor`]).
    pub fn new(at: u64) -> Self {
        FeedCursor(Arc::new(AtomicU64::new(at)))
    }

    /// The `seq` of the first entry not consumed yet.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }

    /// Moves the cursor; everything below it may be dropped by the feed.
    pub fn set(&self, at: u64) {
        self.0.store(at, Ordering::SeqCst);
    }

    /// The handle a feed keeps on a registered cursor: it reads the
    /// position while the reader lives and fails to upgrade once the
    /// reader dropped its `FeedCursor`. Two handles on one cursor are
    /// [`Weak::ptr_eq`].
    pub fn watch(&self) -> Weak<AtomicU64> {
        Arc::downgrade(&self.0)
    }
}

/// A reader asked for feed entries the site no longer holds: the feed keeps
/// only what its registered readers have not consumed. The reader cannot
/// catch up from the feed and must refresh in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedTrimmed {
    /// The cursor the reader asked from.
    pub cursor: u64,
    /// The `seq` of the oldest entry still retained.
    pub retained_from: u64,
}

impl fmt::Display for FeedTrimmed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "change feed trimmed: asked from {}, retained from {}",
            self.cursor, self.retained_from
        )
    }
}

impl std::error::Error for FeedTrimmed {}

/// A site's change feed, read from a registered cursor.
pub trait ChangeFeed {
    /// Every change at or after the reader's cursor, in feed order. The
    /// first call registers the cursor: from then on the feed keeps what
    /// the reader has not consumed, and only that. A reader that starts
    /// below the retained feed gets [`FeedTrimmed`] — the changes it missed
    /// are gone, so the answer is a full refresh, never a shorter slice.
    fn changes_for(&self, reader: &FeedCursor) -> Result<&[SiteChange], FeedTrimmed>;

    /// The current end-of-feed cursor: the `seq` the next change will get.
    /// Take a cursor *before* mutating and the slice after covers exactly
    /// those mutations.
    fn change_cursor(&self) -> u64;
}
