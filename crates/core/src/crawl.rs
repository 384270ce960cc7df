//! Site crawling: exploring a site from its entry points.
//!
//! The paper assumes both statistics and constraints are "estimated
//! exploring the site by means of a tool such as WebSQL". This module is
//! that tool: a BFS from the entry points that follows every typed link
//! and wraps every page, returning the full instance of every page-scheme.

use adm::{Tuple, Url, WebScheme};
use nalg::PageSource;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// A crawled site instance: page-scheme name → URL-sorted pages.
pub type SiteInstance = BTreeMap<String, Vec<(Url, Tuple)>>;

/// Sequential BFS crawl from the scheme's entry points. Unreachable or
/// unwrappable pages are skipped silently (the web is best-effort).
pub fn crawl_instance(ws: &WebScheme, source: &impl PageSource) -> SiteInstance {
    let mut queue: VecDeque<(Url, String)> = ws
        .entry_points()
        .iter()
        .map(|e| (e.url.clone(), e.scheme.clone()))
        .collect();
    let mut seen: HashSet<Url> = queue.iter().map(|(u, _)| u.clone()).collect();
    let mut out: SiteInstance = BTreeMap::new();
    while let Some((url, scheme)) = queue.pop_front() {
        let Ok(tuple) = source.fetch(&url, &scheme) else {
            continue;
        };
        let Ok(ps) = ws.scheme(&scheme) else { continue };
        for (target, link) in ps.outlinks(&tuple) {
            if seen.insert(link.clone()) {
                queue.push_back((link, target));
            }
        }
        out.entry(scheme).or_default().push((url, tuple));
    }
    for pages in out.values_mut() {
        pages.sort_by(|a, b| a.0.cmp(&b.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::LiveSource;
    use websim::sitegen::{University, UniversityConfig};

    fn uni() -> University {
        University::generate(UniversityConfig {
            departments: 3,
            professors: 8,
            courses: 16,
            seed: 71,
            ..UniversityConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn sequential_crawl_reaches_whole_site() {
        let u = uni();
        let src = LiveSource::for_site(&u.site);
        let inst = crawl_instance(&u.site.scheme, &src);
        let total: usize = inst.values().map(Vec::len).sum();
        assert_eq!(total, u.site.total_pages());
        // crawled tuples equal ground truth
        for (scheme, pages) in &inst {
            for (url, t) in pages {
                assert_eq!(Some(t), u.site.ground_truth(scheme, url));
            }
        }
    }

    #[test]
    fn crawl_skips_dangling_pages() {
        let u = uni();
        // remove a course page directly from the server (dangling links)
        u.site.server.remove(&University::course_url(3));
        let src = LiveSource::for_site(&u.site);
        let inst = crawl_instance(&u.site.scheme, &src);
        let total: usize = inst.values().map(Vec::len).sum();
        assert_eq!(total, u.site.total_pages() - 1);
    }
}
