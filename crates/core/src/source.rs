//! The live page source: any page server + the wrapper.
//!
//! [`download_page`] is the one routine that turns a `GET` into a page: a
//! counted download from a [`nalg::PageServer`], then the scheme's wrapper
//! over the HTML — the full pipeline the paper assumes ("pages have to be
//! downloaded from the network, then wrapped in order to extract attribute
//! values"). [`LiveSource`] implements [`nalg::PageSource`] with it, and
//! `matview`'s store takes every page it downloads from it. A cross-query
//! cache in front of it is the evaluator's to consult:
//! [`nalg::EvalPolicy::shared_cache`].

use adm::{PageScheme, Tuple, Url, WebScheme};
use nalg::{PageServer, PageSource, SourceError};
use websim::VirtualServer;

/// Downloads `url` from `server` (one counted `GET`) and wraps its body
/// under `ps`, returning the page and the server's Last-Modified stamp. A
/// failed request is the server's own error; a body the wrapper refuses
/// (truncated, corrupt) is [`SourceError::Malformed`].
pub fn download_page(
    server: &impl PageServer,
    ps: &PageScheme,
    url: &Url,
) -> Result<(Tuple, u64), SourceError> {
    let resp = server.get(url)?;
    let tuple = wrapper::wrap_bytes(ps, &resp.body).map_err(|e| SourceError::Malformed {
        url: url.clone(),
        reason: e.to_string(),
    })?;
    Ok((tuple, resp.last_modified))
}

/// A page source over a live site: any [`PageServer`], the simulated one
/// by default.
pub struct LiveSource<'a, P = VirtualServer> {
    ws: &'a WebScheme,
    server: &'a P,
}

impl<'a, P> LiveSource<'a, P> {
    /// Wraps a scheme and a server.
    pub fn new(ws: &'a WebScheme, server: &'a P) -> Self {
        LiveSource { ws, server }
    }
}

impl<'a> LiveSource<'a> {
    /// Convenience constructor over a generated site.
    pub fn for_site(site: &'a websim::Site) -> Self {
        LiveSource::new(&site.scheme, &site.server)
    }
}

impl<P: PageServer + Sync> PageSource for LiveSource<'_, P> {
    fn fetch(&self, url: &Url, scheme: &str) -> Result<Tuple, SourceError> {
        self.fetch_stamped(url, scheme).map(|(t, _)| t)
    }

    fn fetch_stamped(&self, url: &Url, scheme: &str) -> Result<(Tuple, Option<u64>), SourceError> {
        let ps = self
            .ws
            .scheme(scheme)
            .map_err(|e| SourceError::Other(e.to_string()))?;
        let (tuple, last_modified) = download_page(self.server, ps, url)?;
        Ok((tuple, Some(last_modified)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::sitegen::{University, UniversityConfig};

    #[test]
    fn fetches_and_wraps_live_pages() {
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 4,
            courses: 6,
            seed: 2,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        let url = University::prof_url(0);
        let t = src.fetch(&url, "ProfPage").unwrap();
        assert_eq!(Some(&t), u.site.ground_truth("ProfPage", &url));
        // a GET was counted
        assert_eq!(u.site.server.stats().gets, 1);
    }

    #[test]
    fn injected_faults_map_to_transient_source_errors() {
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 4,
            courses: 6,
            seed: 2,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        let url = University::prof_url(0);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(1)
                .with_rule(websim::FaultRule::unavailable(1.0).with_max_per_url(None)),
        );
        let err = src.fetch(&url, "ProfPage").unwrap_err();
        assert!(matches!(err, SourceError::Unavailable { .. }));
        assert!(err.is_transient());
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(1)
                .with_rule(websim::FaultRule::timeouts(1.0).with_max_per_url(None)),
        );
        assert!(matches!(
            src.fetch(&url, "ProfPage"),
            Err(SourceError::Timeout(_))
        ));
    }

    #[test]
    fn truncated_body_maps_to_malformed() {
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 4,
            courses: 6,
            seed: 2,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        let url = University::prof_url(0);
        u.site.server.set_fault_plan(
            websim::FaultPlan::new(1)
                .with_rule(websim::FaultRule::truncation(1.0, 10).with_max_per_url(None)),
        );
        let err = src.fetch(&url, "ProfPage").unwrap_err();
        assert!(matches!(err, SourceError::Malformed { .. }), "got: {err:?}");
        assert!(!err.is_transient());
    }

    #[test]
    fn missing_page_maps_to_not_found() {
        let u = University::generate(UniversityConfig {
            departments: 2,
            professors: 4,
            courses: 6,
            seed: 2,
            ..UniversityConfig::default()
        })
        .unwrap();
        let src = LiveSource::for_site(&u.site);
        assert!(matches!(
            src.fetch(&Url::new("/nope.html"), "ProfPage"),
            Err(SourceError::NotFound(_))
        ));
    }
}
