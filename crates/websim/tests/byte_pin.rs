//! Byte pins: what the generators serve and what a mutation plan does to
//! it, held to digests taken before the renderer and `apply_round` were
//! rewritten. A renderer or mutator change that moves one byte of one page
//! body, or one entry of the change feed, fails here — `page_accesses` and
//! `websim.bytes_per_req` in the ledger stand on exactly these bytes.

use websim::site::{ChangeKind, Site};
use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
use websim::{MutationPlan, MutationRule};

/// FNV-1a, 64 bit.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one field in, then a separator no UTF-8 text contains, so
    /// ("ab", "c") and ("a", "bc") differ.
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// (digest, total body bytes, pages) over every page body of the site, in
/// scheme-declaration then URL order, each body preceded by its URL.
fn bodies(site: &Site, d: &mut Digest) -> (u64, usize) {
    let mut total = 0;
    let mut pages = 0;
    for ps in site.scheme.schemes() {
        for (url, _) in site.instance(&ps.name) {
            let resp = site.server.get(&url).unwrap();
            d.bytes(url.as_str().as_bytes());
            d.bytes(&resp.body);
            total += resp.body.len();
            pages += 1;
        }
    }
    site.server.reset_stats();
    (total as u64, pages)
}

fn site_pin(site: &Site) -> (u64, u64, usize) {
    let mut d = Digest::new();
    let (total, pages) = bodies(site, &mut d);
    (d.0, total, pages)
}

fn medium() -> UniversityConfig {
    UniversityConfig {
        departments: 10,
        professors: 200,
        courses: 1_000,
        ..UniversityConfig::default()
    }
}

#[test]
fn generated_page_bodies_are_pinned() {
    let default = University::generate(UniversityConfig::default()).unwrap();
    let medium = University::generate(medium()).unwrap();
    let bib = Bibliography::generate(BibConfig::default()).unwrap();
    assert_eq!(
        [
            site_pin(&default.site),
            site_pin(&medium.site),
            site_pin(&bib.site)
        ],
        [
            (0xbaba_af30_d798_064a, 101_063, 80),
            (0xd52a_dbbd_38e0_a70c, 1_640_256, 1_217),
            (0x013e_7aaf_dd15_bb9d, 2_133_867, 448)
        ],
        "(digest, body bytes, pages) of University default, University 10/200/1000, Bibliography default"
    );
}

/// The ledger's `view_maintain` rule set, plus a link-dropping and a
/// deleting rule so every `MutationKind` is under the pin.
fn plan() -> MutationPlan {
    MutationPlan::new(7)
        .with_rule(MutationRule::edit_attr("DeptPage", "Address", 0.10))
        .with_rule(MutationRule::edit_attr("ProfPage", "Rank", 0.02))
        .with_rule(MutationRule::edit_attr("CoursePage", "Description", 0.01))
        .with_rule(MutationRule::drop_links(
            "SessionPage",
            &["CourseList", "ToCourse"],
            0.002,
        ))
        .with_rule(MutationRule::delete("CoursePage", 0.003))
}

#[test]
fn twenty_mutation_rounds_are_pinned() {
    let mut uni = University::generate(medium()).unwrap();
    let start = uni.site.change_cursor();
    let plan = plan();
    let mut edited = 0;
    let mut dropped = 0;
    let mut deleted = 0;
    for round in 0..20 {
        let rep = plan.apply_round(&mut uni.site, round).unwrap();
        edited += rep.edited_pages;
        dropped += rep.dropped_links;
        deleted += rep.deleted_pages;
    }
    assert!(
        edited > 0 && dropped > 0 && deleted > 0,
        "every kind must fire: {edited} / {dropped} / {deleted}"
    );
    let mut d = Digest::new();
    let (total, pages) = bodies(&uni.site, &mut d);
    let feed = uni
        .site
        .changes_for(&websim::FeedCursor::new(start))
        .unwrap();
    for c in feed {
        d.bytes(&c.seq.to_le_bytes());
        d.bytes(c.scheme.as_bytes());
        d.bytes(c.url.as_str().as_bytes());
        d.bytes(&[match c.kind {
            ChangeKind::Added => 0,
            ChangeKind::Edited => 1,
            ChangeKind::Removed => 2,
        }]);
    }
    assert_eq!(
        (d.0, total, pages, feed.len(), uni.site.server.now()),
        (0x4ad9_83a3_6454_07bd, 1_586_652, 1_163, 366, 366),
        "bodies + feed after 20 rounds ({edited} edits, {dropped} dropped links, {deleted} deletions)"
    );
}
