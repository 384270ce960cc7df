//! A site: a web scheme, a virtual server, and the ground-truth instance.
//!
//! Site generators publish pages through [`Site::publish`], which validates
//! the tuple against its page-scheme, renders it to HTML, stores it on the
//! server, and records the tuple as *ground truth*. Ground truth lets tests
//! check wrapper round-trips, verify the declared constraints actually hold
//! on the instance, and compute query-result oracles without navigation.

use crate::error::SiteError;
use crate::page::render_page;
use crate::server::VirtualServer;
use crate::Result;
use adm::constraints::Violation;
use adm::{Tuple, Url, WebScheme};
use nalg::{ChangeFeed, HeadResponse, PageResponse, PageServer, SourceError};
pub use nalg::{ChangeKind, FeedCursor, FeedTrimmed, SiteChange};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Weak;

/// A generated web site.
#[derive(Debug)]
pub struct Site {
    /// Site name (for display).
    pub name: String,
    /// The ADM scheme describing the site.
    pub scheme: WebScheme,
    /// The virtual server holding the rendered pages.
    pub server: VirtualServer,
    /// Ground truth: scheme name → URL → the tuple the page was rendered
    /// from. This is the generator's knowledge, *not* available to the
    /// query engine (which must navigate and wrap).
    instances: BTreeMap<String, BTreeMap<Url, Tuple>>,
    /// The retained suffix of the change feed: every publish, republish
    /// and unpublish with `seq >= trimmed`, in order.
    changes: Vec<SiteChange>,
    /// Feed entries dropped so far = the `seq` of `changes[0]`.
    trimmed: u64,
    /// The cursors of the registered readers; a dead `Weak` is a reader
    /// that went away.
    readers: Mutex<Vec<Weak<AtomicU64>>>,
}

impl Site {
    /// Creates an empty site over a scheme.
    pub fn new(name: impl Into<String>, scheme: WebScheme) -> Self {
        Site {
            name: name.into(),
            scheme,
            server: VirtualServer::new(),
            instances: BTreeMap::new(),
            changes: Vec::new(),
            trimmed: 0,
            readers: Mutex::new(Vec::new()),
        }
    }

    /// Appends to the feed, first dropping the prefix every registered
    /// reader has consumed: the feed holds what some reader still needs
    /// (everything, while nobody is registered), not the site's history.
    fn record_change(&mut self, scheme: &str, url: Url, kind: ChangeKind) {
        let mut lowest: Option<u64> = None;
        self.readers.get_mut().retain(|reader| {
            let Some(cursor) = reader.upgrade() else {
                return false;
            };
            let at = cursor.load(Ordering::SeqCst);
            lowest = Some(lowest.map_or(at, |l| l.min(at)));
            true
        });
        if let Some(lowest) = lowest {
            let consumed = lowest.saturating_sub(self.trimmed) as usize;
            let consumed = consumed.min(self.changes.len());
            self.changes.drain(..consumed);
            self.trimmed += consumed as u64;
        }
        self.changes.push(SiteChange {
            seq: self.change_cursor(),
            scheme: scheme.to_string(),
            url,
            kind,
        });
    }

    /// The current end-of-feed cursor: the `seq` the next change will get,
    /// counted from the site's creation whatever has been trimmed since.
    /// A reader at `change_cursor()` reads an empty slice; take a cursor
    /// *before* mutating and the slice after covers exactly those mutations.
    pub fn change_cursor(&self) -> u64 {
        self.trimmed + self.changes.len() as u64
    }

    /// Every change at or after the reader's cursor, in feed order. The
    /// first call registers the cursor with this site: from then on the
    /// feed keeps what the reader has not consumed, and only that.
    ///
    /// A reader that starts below the retained feed (it registered after
    /// another reader had let the site trim) gets [`FeedTrimmed`] — the
    /// changes it missed are gone, so the answer is a full refresh, never
    /// a shorter slice.
    pub fn changes_for(
        &self,
        reader: &FeedCursor,
    ) -> std::result::Result<&[SiteChange], FeedTrimmed> {
        {
            let watch = reader.watch();
            let mut readers = self.readers.lock();
            if !readers.iter().any(|r| r.ptr_eq(&watch)) {
                readers.push(watch);
            }
        }
        let cursor = reader.get();
        let at = cursor.checked_sub(self.trimmed).ok_or(FeedTrimmed {
            cursor,
            retained_from: self.trimmed,
        })? as usize;
        Ok(&self.changes[at.min(self.changes.len())..])
    }

    /// Validates, renders, and publishes a page; records ground truth.
    pub fn publish(
        &mut self,
        scheme_name: &str,
        url: Url,
        tuple: Tuple,
        title: &str,
    ) -> Result<()> {
        let ps = self.scheme.scheme(scheme_name)?;
        if !tuple.conforms_to(&ps.fields) {
            return Err(SiteError::Adm(adm::AdmError::SchemaViolation(format!(
                "tuple for {url} does not conform to page-scheme {scheme_name}"
            ))));
        }
        let html = render_page(ps, &tuple, title);
        let kind = if self
            .instances
            .get(scheme_name)
            .is_some_and(|m| m.contains_key(&url))
        {
            ChangeKind::Edited
        } else {
            ChangeKind::Added
        };
        self.server.put(url.clone(), scheme_name, html);
        self.instances
            .entry(scheme_name.to_string())
            .or_default()
            .insert(url.clone(), tuple);
        self.record_change(scheme_name, url, kind);
        Ok(())
    }

    /// Re-publishes a page with a *newer* last-modified stamp (a site
    /// update by the autonomous site manager).
    pub fn republish(
        &mut self,
        scheme_name: &str,
        url: Url,
        tuple: Tuple,
        title: &str,
    ) -> Result<()> {
        self.server.tick();
        self.publish(scheme_name, url, tuple, title)
    }

    /// Deletes a page from the server and the ground truth.
    pub fn unpublish(&mut self, scheme_name: &str, url: &Url) -> bool {
        let existed = self.server.remove(url);
        if let Some(m) = self.instances.get_mut(scheme_name) {
            m.remove(url);
        }
        if existed {
            self.record_change(scheme_name, url.clone(), ChangeKind::Removed);
        }
        existed
    }

    /// The ground-truth pages of a page-scheme, URL-ordered and borrowed:
    /// the walk for anything that reads many pages and keeps few.
    pub fn pages(&self, scheme_name: &str) -> impl Iterator<Item = (&Url, &Tuple)> {
        self.instances.get(scheme_name).into_iter().flatten()
    }

    /// Every ground-truth page of the site: scheme by scheme in name order,
    /// URL-ordered within a scheme.
    pub fn all_pages(&self) -> impl Iterator<Item = (&Url, &Tuple)> {
        self.instances.values().flatten()
    }

    /// The ground-truth instance of a page-scheme, URL-ordered — an owned
    /// copy of every [`Site::pages`] entry.
    pub fn instance(&self, scheme_name: &str) -> Vec<(Url, Tuple)> {
        self.pages(scheme_name)
            .map(|(u, t)| (u.clone(), t.clone()))
            .collect()
    }

    /// The ground-truth tuple for one URL, if published.
    pub fn ground_truth(&self, scheme_name: &str, url: &Url) -> Option<&Tuple> {
        self.instances.get(scheme_name)?.get(url)
    }

    /// Number of pages of a scheme.
    pub fn cardinality(&self, scheme_name: &str) -> usize {
        self.instances.get(scheme_name).map_or(0, |m| m.len())
    }

    /// Total pages across all schemes.
    pub fn total_pages(&self) -> usize {
        self.instances.values().map(|m| m.len()).sum()
    }

    /// Verifies every declared link and inclusion constraint against the
    /// ground truth; returns all violations (empty means the instance
    /// satisfies its scheme's constraints).
    pub fn verify_constraints(&self) -> Vec<Violation> {
        self.scheme
            .constraints()
            .flat_map(|c| {
                c.verify(
                    self.pages(c.sampled_scheme()),
                    self.pages(c.reference_scheme()),
                )
            })
            .collect()
    }
}

impl ChangeFeed for Site {
    fn changes_for(&self, reader: &FeedCursor) -> std::result::Result<&[SiteChange], FeedTrimmed> {
        Site::changes_for(self, reader)
    }

    fn change_cursor(&self) -> u64 {
        Site::change_cursor(self)
    }
}

/// A site serves its pages through its own server, so a caller that reads
/// the feed and fetches what it names can take the site alone.
impl PageServer for Site {
    fn get(&self, url: &Url) -> std::result::Result<PageResponse, SourceError> {
        self.server.get(url)
    }

    fn head(&self, url: &Url) -> std::result::Result<HeadResponse, SourceError> {
        self.server.head(url)
    }

    fn now(&self) -> u64 {
        self.server.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm::{Field, PageScheme, Value};

    fn mini_site() -> Site {
        let list = PageScheme::new(
            "ListPage",
            vec![Field::list(
                "Items",
                vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
            )],
        )
        .unwrap();
        let item = PageScheme::new("ItemPage", vec![Field::text("Name")]).unwrap();
        let ws = WebScheme::builder()
            .scheme(list)
            .scheme(item)
            .entry_point("ListPage", "/list.html")
            .link_constraint(
                adm::LinkConstraint::parse(
                    "ListPage.Items.ToItem",
                    "ListPage.Items.Name",
                    "ItemPage.Name",
                )
                .unwrap(),
            )
            .build()
            .unwrap();
        Site::new("mini", ws)
    }

    #[test]
    fn publish_validates_and_serves() {
        let mut s = mini_site();
        s.publish(
            "ItemPage",
            Url::new("/i1.html"),
            Tuple::new().with("Name", "one"),
            "Item one",
        )
        .unwrap();
        let r = s.server.get(&Url::new("/i1.html")).unwrap();
        assert!(std::str::from_utf8(&r.body).unwrap().contains("one"));
        assert_eq!(s.cardinality("ItemPage"), 1);
    }

    #[test]
    fn publish_rejects_nonconforming() {
        let mut s = mini_site();
        let err = s.publish(
            "ItemPage",
            Url::new("/i1.html"),
            Tuple::new().with("Wrong", "x"),
            "bad",
        );
        assert!(err.is_err());
    }

    #[test]
    fn constraint_verification_passes_consistent_site() {
        let mut s = mini_site();
        s.publish(
            "ItemPage",
            Url::new("/i1.html"),
            Tuple::new().with("Name", "one"),
            "one",
        )
        .unwrap();
        s.publish(
            "ListPage",
            Url::new("/list.html"),
            Tuple::new().with_list(
                "Items",
                vec![Tuple::new()
                    .with("Name", "one")
                    .with("ToItem", Value::link("/i1.html"))],
            ),
            "list",
        )
        .unwrap();
        assert!(s.verify_constraints().is_empty());
    }

    #[test]
    fn constraint_verification_flags_inconsistency() {
        let mut s = mini_site();
        s.publish(
            "ItemPage",
            Url::new("/i1.html"),
            Tuple::new().with("Name", "one"),
            "one",
        )
        .unwrap();
        s.publish(
            "ListPage",
            Url::new("/list.html"),
            Tuple::new().with_list(
                "Items",
                vec![Tuple::new()
                    .with("Name", "WRONG ANCHOR")
                    .with("ToItem", Value::link("/i1.html"))],
            ),
            "list",
        )
        .unwrap();
        assert!(!s.verify_constraints().is_empty());
    }

    #[test]
    fn republish_bumps_modification_time() {
        let mut s = mini_site();
        let u = Url::new("/i1.html");
        s.publish("ItemPage", u.clone(), Tuple::new().with("Name", "one"), "t")
            .unwrap();
        let t0 = s.server.head(&u).unwrap().last_modified;
        s.republish("ItemPage", u.clone(), Tuple::new().with("Name", "two"), "t")
            .unwrap();
        assert!(s.server.head(&u).unwrap().last_modified > t0);
        assert_eq!(
            s.ground_truth("ItemPage", &u).unwrap().get("Name").unwrap(),
            &Value::text("two")
        );
    }

    #[test]
    fn change_feed_records_publish_edit_remove_in_order() {
        let mut s = mini_site();
        let u = Url::new("/i1.html");
        assert_eq!(s.change_cursor(), 0);
        s.publish("ItemPage", u.clone(), Tuple::new().with("Name", "one"), "t")
            .unwrap();
        let cursor = s.change_cursor();
        assert_eq!(cursor, 1);
        let since = FeedCursor::new;
        assert_eq!(s.changes_for(&since(0)).unwrap()[0].kind, ChangeKind::Added);
        s.republish("ItemPage", u.clone(), Tuple::new().with("Name", "two"), "t")
            .unwrap();
        s.unpublish("ItemPage", &u);
        let tail = s.changes_for(&since(cursor)).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].kind, ChangeKind::Edited);
        assert_eq!(tail[0].url, u);
        assert_eq!(tail[0].seq, 1);
        assert_eq!(tail[1].kind, ChangeKind::Removed);
        assert_eq!(tail[1].seq, 2);
        // removing a page that is already gone records nothing
        assert!(!s.unpublish("ItemPage", &u));
        assert_eq!(s.change_cursor(), 3);
        // cursor past the end is an empty slice, not a panic
        assert!(s.changes_for(&since(99)).unwrap().is_empty());
    }

    /// One feed entry: an edit of the one item page.
    fn edit(s: &mut Site, n: u64) {
        let t = Tuple::new().with("Name", format!("v{n}"));
        s.republish("ItemPage", Url::new("/i1.html"), t, "t")
            .unwrap();
    }

    #[test]
    fn a_registered_reader_bounds_the_feed_to_what_it_has_not_consumed() {
        let mut s = mini_site();
        // nobody registered: nothing is trimmed, history reads from 0
        for n in 0..10 {
            edit(&mut s, n);
        }
        assert_eq!(s.changes_for(&FeedCursor::new(0)).unwrap().len(), 10);

        let reader = FeedCursor::new(s.change_cursor());
        assert!(s.changes_for(&reader).unwrap().is_empty());
        for round in 0..1_000u64 {
            for n in 0..3 {
                edit(&mut s, n);
            }
            let batch = s.changes_for(&reader).unwrap();
            assert_eq!(batch.len(), 3);
            // seq and cursors stay absolute whatever was trimmed
            assert_eq!(batch[0].seq, 10 + 3 * round);
            assert_eq!(batch[0].seq, reader.get());
            reader.set(s.change_cursor());
            assert!(s.changes.len() <= 3, "round {round}: {}", s.changes.len());
        }
        assert_eq!(s.change_cursor(), 10 + 3_000);
        let end = FeedCursor::new(s.change_cursor());
        assert!(s.changes_for(&end).unwrap().is_empty());
    }

    #[test]
    fn the_slowest_live_reader_holds_the_feed_and_a_dropped_one_lets_go() {
        let mut s = mini_site();
        let fast = FeedCursor::new(0);
        let slow = FeedCursor::new(0);
        for round in 0..5 {
            for n in 0..3 {
                edit(&mut s, n);
            }
            s.changes_for(&slow).unwrap(); // registers, consumes nothing
            s.changes_for(&fast).unwrap();
            fast.set(s.change_cursor());
            assert_eq!(s.changes.len(), 3 * (round + 1), "slow reader holds all");
        }
        assert_eq!(s.changes_for(&slow).unwrap().len(), 15);
        // the slow reader catches up to 9: the next change trims below it
        slow.set(9);
        edit(&mut s, 0);
        assert_eq!(s.changes_for(&slow).unwrap().len(), 7);
        assert_eq!(s.changes.len(), 7);
        // the slow reader goes away: only the fast one (at 15) counts
        drop(slow);
        edit(&mut s, 1);
        assert_eq!(s.changes.len(), 2);
        assert_eq!(s.changes_for(&fast).unwrap()[0].seq, 15);
        // nobody left: the feed grows again, nothing is trimmed
        drop(fast);
        for n in 0..10 {
            edit(&mut s, n);
        }
        assert_eq!(s.changes.len(), 12);
    }

    #[test]
    fn a_cursor_below_the_retained_feed_is_an_error_not_a_shorter_slice() {
        let mut s = mini_site();
        let reader = FeedCursor::new(0);
        for n in 0..4 {
            edit(&mut s, n);
        }
        s.changes_for(&reader).unwrap();
        reader.set(s.change_cursor());
        edit(&mut s, 4); // trims 0..4
        let late = FeedCursor::new(2);
        assert_eq!(
            s.changes_for(&late),
            Err(FeedTrimmed {
                cursor: 2,
                retained_from: 4
            })
        );
        // it registered all the same: from the end of the feed it reads on
        late.set(s.change_cursor());
        edit(&mut s, 5);
        assert_eq!(s.changes_for(&late).unwrap().len(), 1);
    }

    #[test]
    fn unpublish_removes_everywhere() {
        let mut s = mini_site();
        let u = Url::new("/i1.html");
        s.publish("ItemPage", u.clone(), Tuple::new().with("Name", "one"), "t")
            .unwrap();
        assert!(s.unpublish("ItemPage", &u));
        assert_eq!(s.cardinality("ItemPage"), 0);
        assert!(!s.server.exists(&u));
        assert_eq!(s.total_pages(), 0);
    }
}
