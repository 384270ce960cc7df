//! The local ADM database.
//!
//! One nested page-relation per page-scheme; each tuple carries the URL key
//! and an `AccessDate` — "besides ordinary attributes, we also store, for
//! each page, the date we accessed it". A per-query status flag
//! (`none | checked | new | missing`) drives URLCheck, and a persistent
//! `CheckMissing` queue collects URLs whose pages may have been deleted.

use crate::{MatError, Result};
use adm::{Field, Tuple, Url, Value, WebScheme, WebType};
use std::collections::{HashMap, HashSet, VecDeque};

/// A materialized page: its wrapped tuple plus the logical date it was
/// last downloaded.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPage {
    /// The page-scheme the page belongs to.
    pub scheme: String,
    /// The wrapped nested tuple.
    pub tuple: Tuple,
    /// Logical time of the last download.
    pub access_date: u64,
    /// True when the last refresh attempt failed and the page was
    /// retained as-is: the tuple may no longer match the live page.
    /// Cleared by the next successful download ([`MatStore::put`]).
    pub stale: bool,
}

/// Per-query URL status (the paper's `status(U)` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UrlStatus {
    /// Not seen in this query yet.
    #[default]
    None,
    /// Already checked during this query.
    Checked,
    /// Appeared as a new outlink of a re-downloaded page.
    New,
    /// Disappeared from a re-downloaded page's outlinks.
    Missing,
}

/// The local materialized store.
#[derive(Debug, Default, Clone)]
pub struct MatStore {
    pages: HashMap<Url, StoredPage>,
    status: HashMap<Url, UrlStatus>,
    /// URLs suspected deleted, to be verified off-line
    /// (the paper's `CheckMissing` structure).
    pub check_missing: VecDeque<Url>,
}

/// All outgoing links of a tuple under its scheme's fields.
pub fn outlinks(fields: &[Field], tuple: &Tuple) -> Vec<(String, Url)> {
    let mut out = Vec::new();
    fn walk(fields: &[Field], tuple: &Tuple, out: &mut Vec<(String, Url)>) {
        for f in fields {
            match (&f.ty, tuple.get(&f.name)) {
                (WebType::Link { target }, Some(Value::Link(u))) => {
                    out.push((target.clone(), u.clone()));
                }
                (WebType::List(inner), Some(Value::List(rows))) => {
                    for row in rows {
                        walk(inner, row, out);
                    }
                }
                _ => {}
            }
        }
    }
    walk(fields, tuple, &mut out);
    out
}

impl MatStore {
    /// An empty store.
    pub fn new() -> Self {
        MatStore::default()
    }

    /// The stored page at a URL.
    pub fn get(&self, url: &Url) -> Option<&StoredPage> {
        self.pages.get(url)
    }

    /// Every stored page, URL-ordered — the deterministic inventory the
    /// incremental-maintenance layer and the equivalence proptests compare
    /// against (queries still go through URLCheck; this is maintenance
    /// plumbing, not a query path).
    pub fn pages_sorted(&self) -> Vec<(&Url, &StoredPage)> {
        let mut out: Vec<_> = self.pages.iter().collect();
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        out
    }

    /// Inserts or replaces a page. A fresh download is never stale.
    pub fn put(&mut self, url: Url, scheme: impl Into<String>, tuple: Tuple, access_date: u64) {
        self.pages.insert(
            url,
            StoredPage {
                scheme: scheme.into(),
                tuple,
                access_date,
                stale: false,
            },
        );
    }

    /// Removes a page (confirmed deleted).
    pub fn remove(&mut self, url: &Url) -> bool {
        self.pages.remove(url).is_some()
    }

    /// Flags a stored page as stale-but-retained (its refresh failed, so
    /// the tuple may not match the live page). Returns `false` when the
    /// URL is not materialized.
    pub fn mark_stale(&mut self, url: &Url) -> bool {
        match self.pages.get_mut(url) {
            Some(p) => {
                p.stale = true;
                true
            }
            None => false,
        }
    }

    /// Clears the staleness flag (a later check verified the copy is
    /// current again). Returns `false` when the URL is not materialized.
    pub fn clear_stale(&mut self, url: &Url) -> bool {
        match self.pages.get_mut(url) {
            Some(p) => {
                p.stale = false;
                true
            }
            None => false,
        }
    }

    /// True when the URL is materialized and flagged stale.
    pub fn is_stale(&self, url: &Url) -> bool {
        self.pages.get(url).is_some_and(|p| p.stale)
    }

    /// Number of stale-but-retained pages.
    pub fn stale_count(&self) -> usize {
        self.pages.values().filter(|p| p.stale).count()
    }

    /// Drops every page whose URL is not in `keep` (used by a full
    /// refresh to discard pages no longer reachable from any entry
    /// point). Returns the number of pages dropped.
    pub fn retain_pages(&mut self, keep: &HashSet<Url>) -> usize {
        let before = self.pages.len();
        self.pages.retain(|u, _| keep.contains(u));
        before - self.pages.len()
    }

    /// Number of materialized pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if nothing is materialized.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Number of pages of one scheme.
    pub fn cardinality(&self, scheme: &str) -> usize {
        self.pages.values().filter(|p| p.scheme == scheme).count()
    }

    /// The status flag of a URL.
    pub fn status(&self, url: &Url) -> UrlStatus {
        self.status.get(url).copied().unwrap_or_default()
    }

    /// Sets the status flag of a URL.
    pub fn set_status(&mut self, url: Url, s: UrlStatus) {
        self.status.insert(url, s);
    }

    /// Resets all status flags (done at the start of every query).
    pub fn reset_status(&mut self) {
        self.status.clear();
    }

    /// Exports the store as flat relations in Partitioned Normal Form —
    /// the paper's observation that the materialized nested relations
    /// "can be easily decomposed in flat relations and stored in a
    /// relational DBMS". One table per nesting level, named
    /// `Scheme` / `Scheme.List` / `Scheme.List.Inner`.
    pub fn export_flat(
        &self,
        ws: &WebScheme,
    ) -> Result<std::collections::BTreeMap<String, adm::Relation>> {
        let mut out = std::collections::BTreeMap::new();
        for scheme in ws.schemes() {
            let instance: Vec<(Url, Tuple)> = {
                let mut pages: Vec<(Url, Tuple)> = self
                    .pages
                    .iter()
                    .filter(|(_, p)| p.scheme == scheme.name)
                    .map(|(u, p)| (u.clone(), p.tuple.clone()))
                    .collect();
                pages.sort_by(|a, b| a.0.cmp(&b.0));
                pages
            };
            if instance.is_empty() {
                continue;
            }
            for (name, rel) in adm::pnf::decompose(scheme, &instance)? {
                out.insert(name, rel);
            }
        }
        Ok(out)
    }

    /// Materializes the whole site by crawling it from its entry points
    /// through the live server, wrapping every page. Returns the number of
    /// pages downloaded.
    pub fn materialize(
        &mut self,
        ws: &WebScheme,
        server: &impl websim::PageServer,
    ) -> Result<usize> {
        Ok(self.materialize_report(ws, server)?.downloaded)
    }

    /// Like [`MatStore::materialize`], with a full account of the crawl.
    ///
    /// A page whose `GET` fails is **not** silently skipped: if an older
    /// copy is materialized it is marked stale-but-retained (so nothing
    /// pretends the failed refresh succeeded) and the crawl continues
    /// through the *old* tuple's outlinks so the subtree behind it is not
    /// orphaned. Pages that 404 are additionally queued on
    /// [`MatStore::check_missing`] for the off-line sweep.
    pub fn materialize_report(
        &mut self,
        ws: &WebScheme,
        server: &impl websim::PageServer,
    ) -> Result<MaterializeReport> {
        let mut queue: VecDeque<(Url, String)> = ws
            .entry_points()
            .iter()
            .map(|e| (e.url.clone(), e.scheme.clone()))
            .collect();
        let mut seen: HashSet<Url> = queue.iter().map(|(u, _)| u.clone()).collect();
        let mut report = MaterializeReport::default();
        while let Some((url, scheme)) = queue.pop_front() {
            let resp = match server.get(&url) {
                Ok(resp) => resp,
                Err(e) => {
                    report.failed.push(url.clone());
                    if matches!(e, websim::WebError::NotFound(_)) {
                        self.check_missing.push_back(url.clone());
                    }
                    // Keep crawling through the stale copy's outlinks.
                    if let Some(old) = self.pages.get_mut(&url) {
                        old.stale = true;
                        let old_scheme = old.scheme.clone();
                        let old_tuple = old.tuple.clone();
                        let ps = ws.scheme(&old_scheme)?;
                        for (target, link) in outlinks(&ps.fields, &old_tuple) {
                            if seen.insert(link.clone()) {
                                queue.push_back((link, target));
                            }
                        }
                    }
                    continue;
                }
            };
            report.downloaded += 1;
            let ps = ws.scheme(&scheme)?;
            let tuple = wrapper::wrap_bytes(ps, &resp.body)
                .map_err(|e| MatError::Wrap(format!("{url}: {e}")))?;
            for (target, link) in outlinks(&ps.fields, &tuple) {
                if seen.insert(link.clone()) {
                    queue.push_back((link, target));
                }
            }
            self.put(url, scheme, tuple, resp.last_modified.max(server.now()));
        }
        report.failed.sort();
        report.reached = seen;
        Ok(report)
    }
}

/// What a crawl ([`MatStore::materialize_report`]) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaterializeReport {
    /// Pages downloaded and stored fresh.
    pub downloaded: usize,
    /// URLs whose `GET` failed (sorted). Stored copies, if any, were
    /// marked stale-but-retained.
    pub failed: Vec<Url>,
    /// Every URL the crawl reached — fetched or failed. A full refresh
    /// drops pages outside this set as unreachable from any entry point.
    pub reached: HashSet<Url>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::sitegen::{University, UniversityConfig};

    fn uni() -> University {
        University::generate(UniversityConfig {
            departments: 2,
            professors: 6,
            courses: 10,
            seed: 12,
            ..UniversityConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn materialize_downloads_whole_site() {
        let u = uni();
        let mut store = MatStore::new();
        let n = store.materialize(&u.site.scheme, &u.site.server).unwrap();
        assert_eq!(n, u.site.total_pages());
        assert_eq!(store.len(), u.site.total_pages());
        assert_eq!(store.cardinality("CoursePage"), 10);
        // stored tuples equal ground truth
        for (url, truth) in u.site.instance("ProfPage") {
            assert_eq!(store.get(&url).unwrap().tuple, truth);
        }
    }

    #[test]
    fn status_lifecycle() {
        let mut store = MatStore::new();
        let url = Url::new("/x.html");
        assert_eq!(store.status(&url), UrlStatus::None);
        store.set_status(url.clone(), UrlStatus::New);
        assert_eq!(store.status(&url), UrlStatus::New);
        store.reset_status();
        assert_eq!(store.status(&url), UrlStatus::None);
    }

    #[test]
    fn outlinks_found_recursively() {
        let u = uni();
        let ps = u.site.scheme.scheme("ProfPage").unwrap();
        let (url, tuple) = &u.site.instance("ProfPage")[0];
        let links = outlinks(&ps.fields, tuple);
        // at least the department link
        assert!(links.iter().any(|(s, _)| s == "DeptPage"), "{url}");
    }

    #[test]
    fn export_flat_decomposes_per_level() {
        let u = uni();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        let tables = store.export_flat(&u.site.scheme).unwrap();
        // top tables exist per populated scheme, plus one per list level
        assert_eq!(tables["ProfPage"].len(), 6);
        assert_eq!(tables["CoursePage"].len(), 10);
        // every course appears exactly once in its professor's list table
        assert_eq!(tables["ProfPage.CourseList"].len(), 10);
        // child tables carry the parent key
        assert!(tables["ProfPage.CourseList"]
            .columns()
            .contains(&"ProfPage.URL".to_string()));
        // PNF holds on the stored instances
        for scheme in u.site.scheme.schemes() {
            let inst = u.site.instance(&scheme.name);
            assert!(adm::pnf::is_pnf(scheme, &inst), "{}", scheme.name);
        }
    }

    #[test]
    fn put_remove_roundtrip() {
        let mut store = MatStore::new();
        let url = Url::new("/p.html");
        store.put(url.clone(), "P", Tuple::new().with("A", "x"), 3);
        assert_eq!(store.get(&url).unwrap().access_date, 3);
        assert!(store.remove(&url));
        assert!(!store.remove(&url));
        assert!(store.is_empty());
    }

    #[test]
    fn stale_flag_lifecycle() {
        let mut store = MatStore::new();
        let url = Url::new("/p.html");
        assert!(!store.mark_stale(&url), "nothing stored yet");
        store.put(url.clone(), "P", Tuple::new().with("A", "x"), 3);
        assert!(!store.is_stale(&url), "fresh download is never stale");
        assert!(store.mark_stale(&url));
        assert!(store.is_stale(&url));
        assert_eq!(store.stale_count(), 1);
        assert!(store.clear_stale(&url));
        assert!(!store.is_stale(&url));
        store.mark_stale(&url);
        // re-downloading resets the flag
        store.put(url.clone(), "P", Tuple::new().with("A", "y"), 4);
        assert!(!store.is_stale(&url));
        assert_eq!(store.stale_count(), 0);
    }

    #[test]
    fn crawl_with_failing_page_marks_stale_and_keeps_subtree() {
        let u = uni();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        // make one professor page unreachable; its courses hang below it
        let victim = University::prof_url(0);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(3).with_rule(
                websim::FaultRule::unavailable(1.0)
                    .for_url_prefix(victim.as_str())
                    .with_max_per_url(None),
            ),
        );
        let report = store
            .materialize_report(&u.site.scheme, &u.site.server)
            .unwrap();
        assert_eq!(report.failed, vec![victim.clone()]);
        assert_eq!(report.downloaded, u.site.total_pages() - 1);
        // the victim survives, flagged; a 5xx is not queued as missing
        assert!(store.is_stale(&victim));
        assert!(!store.check_missing.contains(&victim));
        // the crawl continued through the stale copy: its courses were
        // re-fetched, so every page of the site is in `reached`
        assert_eq!(report.reached.len(), u.site.total_pages());
        assert_eq!(store.len(), u.site.total_pages());
    }

    #[test]
    fn crawl_queues_rotted_pages_for_the_offline_sweep() {
        let u = uni();
        let mut store = MatStore::new();
        store.materialize(&u.site.scheme, &u.site.server).unwrap();
        let victim = University::course_url(4);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(3)
                .with_rule(websim::FaultRule::link_rot(1.0).for_url_prefix(victim.as_str())),
        );
        let report = store
            .materialize_report(&u.site.scheme, &u.site.server)
            .unwrap();
        assert_eq!(report.failed, vec![victim.clone()]);
        assert!(store.is_stale(&victim), "retained, not silently fresh");
        assert!(store.check_missing.contains(&victim));
    }
}
