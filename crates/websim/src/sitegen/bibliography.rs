//! A bibliography web site modeled on the Trier DBLP repository.
//!
//! The paper's introduction reasons about the query *"find all authors who
//! had papers in the last three VLDB conferences"* over this site and lists
//! four navigation strategies:
//!
//! 1. home → list of all conferences → VLDB page → last three editions;
//! 2. home → list of *database* conferences (a smaller page) → VLDB → …;
//! 3. home → VLDB page directly (a featured link) → …;
//! 4. home → list of authors → every author's page (over 16,000 of them!).
//!
//! The generated site reproduces exactly this topology. Editors are
//! replicated on the conference page (the paper: "if we want to know who
//! were the editors of VLDB '96 … we do not need to follow the link"),
//! which the scheme documents with a link constraint.

use crate::error::SiteError;
use crate::site::Site;
use crate::sitegen::names;
use crate::Result;
use adm::{Field, InclusionConstraint, LinkConstraint, PageScheme, Tuple, Url, Value, WebScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the bibliography site. Defaults are small; the
/// benchmark harness sweeps `authors` up to the paper's 16,000.
#[derive(Debug, Clone)]
pub struct BibConfig {
    /// Total number of authors (paper: "over 16,000").
    pub authors: usize,
    /// Total number of conferences; index 0 is VLDB.
    pub conferences: usize,
    /// How many of the conferences are database conferences (≥ 1; the
    /// first `db_conferences` ones, so VLDB is always included).
    pub db_conferences: usize,
    /// How many of the database conferences are featured on the home page.
    pub featured: usize,
    /// Editions per conference (years counting back from 1997).
    pub editions_per_conf: usize,
    /// Papers per edition.
    pub papers_per_edition: usize,
    /// Maximum authors per paper (1..=max, uniform).
    pub max_authors_per_paper: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BibConfig {
    fn default() -> Self {
        BibConfig {
            authors: 300,
            conferences: 24,
            db_conferences: 8,
            featured: 3,
            editions_per_conf: 5,
            papers_per_edition: 12,
            max_authors_per_paper: 3,
            seed: 97,
        }
    }
}

#[derive(Debug, Clone)]
struct PaperRec {
    title: String,
    conf: usize,
    year: u32,
    authors: Vec<usize>,
}

/// The generated bibliography site plus ground truth for oracles.
#[derive(Debug)]
pub struct Bibliography {
    /// The published site.
    pub site: Site,
    cfg: BibConfig,
    author_names: Vec<String>,
    conf_names: Vec<String>,
    papers: Vec<PaperRec>,
}

/// Builds the bibliography ADM scheme.
pub fn bibliography_scheme() -> Result<WebScheme> {
    let home = PageScheme::new(
        "BibHomePage",
        vec![
            Field::link("ToConfList", "ConfListPage"),
            Field::link("ToDBConfList", "DBConfListPage"),
            Field::link("ToAuthorList", "AuthorListPage"),
            Field::list(
                "Featured",
                vec![Field::text("ConfName"), Field::link("ToConf", "ConfPage")],
            ),
        ],
    )?;
    let conf_list_fields = vec![Field::list(
        "ConfList",
        vec![Field::text("ConfName"), Field::link("ToConf", "ConfPage")],
    )];
    let conf_list = PageScheme::new("ConfListPage", conf_list_fields.clone())?;
    let db_conf_list = PageScheme::new("DBConfListPage", conf_list_fields)?;
    let conf = PageScheme::new(
        "ConfPage",
        vec![
            Field::text("ConfName"),
            Field::list(
                "EditionList",
                vec![
                    Field::text("Year"),
                    Field::text("Editors"),
                    Field::link("ToEdition", "EditionPage"),
                ],
            ),
        ],
    )?;
    let edition = PageScheme::new(
        "EditionPage",
        vec![
            Field::text("ConfName"),
            Field::text("Year"),
            Field::text("Editors"),
            Field::list(
                "PaperList",
                vec![
                    Field::text("Title"),
                    Field::list(
                        "Authors",
                        vec![Field::text("AName"), Field::link("ToAuthor", "AuthorPage")],
                    ),
                ],
            ),
        ],
    )?;
    let author_list = PageScheme::new(
        "AuthorListPage",
        vec![Field::list(
            "AuthorList",
            vec![Field::text("AName"), Field::link("ToAuthor", "AuthorPage")],
        )],
    )?;
    let author = PageScheme::new(
        "AuthorPage",
        vec![
            Field::text("AName"),
            Field::list(
                "PubList",
                vec![
                    Field::text("Title"),
                    Field::text("ConfName"),
                    Field::text("Year"),
                ],
            ),
        ],
    )?;

    let lc = |link: &str, src: &str, tgt: &str| LinkConstraint::parse(link, src, tgt);
    let ic = |sub: &str, sup: &str| InclusionConstraint::parse(sub, sup);

    Ok(WebScheme::builder()
        .scheme(home)
        .scheme(conf_list)
        .scheme(db_conf_list)
        .scheme(conf)
        .scheme(edition)
        .scheme(author_list)
        .scheme(author)
        .entry_point("BibHomePage", "/bib/index.html")
        .link_constraint(lc(
            "BibHomePage.Featured.ToConf",
            "BibHomePage.Featured.ConfName",
            "ConfPage.ConfName",
        )?)
        .link_constraint(lc(
            "ConfListPage.ConfList.ToConf",
            "ConfListPage.ConfList.ConfName",
            "ConfPage.ConfName",
        )?)
        .link_constraint(lc(
            "DBConfListPage.ConfList.ToConf",
            "DBConfListPage.ConfList.ConfName",
            "ConfPage.ConfName",
        )?)
        // Editions replicate year AND editors on the conference page — the
        // redundancy the paper's "editors of VLDB '96" example exploits.
        .link_constraint(lc(
            "ConfPage.EditionList.ToEdition",
            "ConfPage.EditionList.Year",
            "EditionPage.Year",
        )?)
        .link_constraint(lc(
            "ConfPage.EditionList.ToEdition",
            "ConfPage.EditionList.Editors",
            "EditionPage.Editors",
        )?)
        .link_constraint(lc(
            "ConfPage.EditionList.ToEdition",
            "ConfPage.ConfName",
            "EditionPage.ConfName",
        )?)
        .link_constraint(lc(
            "EditionPage.PaperList.Authors.ToAuthor",
            "EditionPage.PaperList.Authors.AName",
            "AuthorPage.AName",
        )?)
        .link_constraint(lc(
            "AuthorListPage.AuthorList.ToAuthor",
            "AuthorListPage.AuthorList.AName",
            "AuthorPage.AName",
        )?)
        .inclusion(ic(
            "DBConfListPage.ConfList.ToConf",
            "ConfListPage.ConfList.ToConf",
        )?)
        .inclusion(ic(
            "BibHomePage.Featured.ToConf",
            "DBConfListPage.ConfList.ToConf",
        )?)
        .inclusion(ic(
            "EditionPage.PaperList.Authors.ToAuthor",
            "AuthorListPage.AuthorList.ToAuthor",
        )?)
        .build()?)
}

impl Bibliography {
    /// Generates a bibliography site.
    pub fn generate(cfg: BibConfig) -> Result<Bibliography> {
        if cfg.conferences == 0
            || cfg.db_conferences == 0
            || cfg.db_conferences > cfg.conferences
            || cfg.featured > cfg.db_conferences
            || cfg.authors == 0
            || cfg.max_authors_per_paper == 0
        {
            return Err(SiteError::BadConfig(
                "need 1 ≤ featured ≤ db_conferences ≤ conferences, ≥1 author, ≥1 author/paper"
                    .into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let author_names = names::person_names(&mut rng, cfg.authors);
        let conf_names = names::conference_names(cfg.conferences);
        let mut papers = Vec::new();
        let mut idx = 0usize;
        for conf in 0..cfg.conferences {
            for e in 0..cfg.editions_per_conf {
                let year = 1997 - e as u32;
                for _ in 0..cfg.papers_per_edition {
                    let n_auth = rng.gen_range(1..=cfg.max_authors_per_paper);
                    let mut authors = Vec::with_capacity(n_auth);
                    while authors.len() < n_auth {
                        let a = rng.gen_range(0..cfg.authors);
                        if !authors.contains(&a) {
                            authors.push(a);
                        }
                    }
                    papers.push(PaperRec {
                        title: names::paper_title(&mut rng, idx),
                        conf,
                        year,
                        authors,
                    });
                    idx += 1;
                }
            }
        }
        let mut b = Bibliography {
            site: Site::new("bibliography", bibliography_scheme()?),
            cfg,
            author_names,
            conf_names,
            papers,
        };
        b.render_all()?;
        Ok(b)
    }

    // ----- URLs -----------------------------------------------------------

    /// URL of the bibliography home page.
    pub fn home_url() -> Url {
        Url::new("/bib/index.html")
    }

    /// URL of a conference page.
    pub fn conf_url(i: usize) -> Url {
        Url::new(format!("/bib/conf/{i}.html"))
    }

    /// URL of an edition page.
    pub fn edition_url(conf: usize, year: u32) -> Url {
        Url::new(format!("/bib/conf/{conf}/{year}.html"))
    }

    /// URL of an author page.
    pub fn author_url(i: usize) -> Url {
        Url::new(format!("/bib/author/{i}.html"))
    }

    // ----- rendering -------------------------------------------------------

    fn conf_row(&self, i: usize) -> Tuple {
        Tuple::new()
            .with("ConfName", self.conf_names[i].clone())
            .with("ToConf", Value::link(Self::conf_url(i)))
    }

    fn editors_of(&self, conf: usize, year: u32) -> String {
        // Deterministic editors derived from conference and year.
        let a = &self.author_names[(conf * 7 + year as usize) % self.author_names.len()];
        let b = &self.author_names[(conf * 13 + year as usize * 3) % self.author_names.len()];
        format!("{a} and {b}")
    }

    fn years(&self) -> Vec<u32> {
        (0..self.cfg.editions_per_conf)
            .map(|e| 1997 - e as u32)
            .collect()
    }

    fn render_all(&mut self) -> Result<()> {
        // home
        let featured: Vec<Tuple> = (0..self.cfg.featured).map(|i| self.conf_row(i)).collect();
        let home = Tuple::new()
            .with("ToConfList", Value::link("/bib/confs.html"))
            .with("ToDBConfList", Value::link("/bib/dbconfs.html"))
            .with("ToAuthorList", Value::link("/bib/authors.html"))
            .with_list("Featured", featured);
        self.site
            .publish("BibHomePage", Self::home_url(), home, "Bibliography Home")?;

        // conference lists
        let all: Vec<Tuple> = (0..self.cfg.conferences)
            .map(|i| self.conf_row(i))
            .collect();
        self.site.publish(
            "ConfListPage",
            Url::new("/bib/confs.html"),
            Tuple::new().with_list("ConfList", all),
            "All Conferences",
        )?;
        let db: Vec<Tuple> = (0..self.cfg.db_conferences)
            .map(|i| self.conf_row(i))
            .collect();
        self.site.publish(
            "DBConfListPage",
            Url::new("/bib/dbconfs.html"),
            Tuple::new().with_list("ConfList", db),
            "Database Conferences",
        )?;

        // conference and edition pages
        for c in 0..self.cfg.conferences {
            let editions: Vec<Tuple> = self
                .years()
                .iter()
                .map(|&y| {
                    Tuple::new()
                        .with("Year", y.to_string())
                        .with("Editors", self.editors_of(c, y))
                        .with("ToEdition", Value::link(Self::edition_url(c, y)))
                })
                .collect();
            let t = Tuple::new()
                .with("ConfName", self.conf_names[c].clone())
                .with_list("EditionList", editions);
            self.site.publish(
                "ConfPage",
                Self::conf_url(c),
                t,
                &self.conf_names[c].clone(),
            )?;

            for &y in &self.years() {
                let paper_rows: Vec<Tuple> = self
                    .papers
                    .iter()
                    .filter(|p| p.conf == c && p.year == y)
                    .map(|p| {
                        let authors: Vec<Tuple> = p
                            .authors
                            .iter()
                            .map(|&a| {
                                Tuple::new()
                                    .with("AName", self.author_names[a].clone())
                                    .with("ToAuthor", Value::link(Self::author_url(a)))
                            })
                            .collect();
                        Tuple::new()
                            .with("Title", p.title.clone())
                            .with_list("Authors", authors)
                    })
                    .collect();
                let t = Tuple::new()
                    .with("ConfName", self.conf_names[c].clone())
                    .with("Year", y.to_string())
                    .with("Editors", self.editors_of(c, y))
                    .with_list("PaperList", paper_rows);
                let title = format!("{} {y}", self.conf_names[c]);
                self.site
                    .publish("EditionPage", Self::edition_url(c, y), t, &title)?;
            }
        }

        // author list and author pages
        let rows: Vec<Tuple> = self
            .author_names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Tuple::new()
                    .with("AName", n.clone())
                    .with("ToAuthor", Value::link(Self::author_url(i)))
            })
            .collect();
        self.site.publish(
            "AuthorListPage",
            Url::new("/bib/authors.html"),
            Tuple::new().with_list("AuthorList", rows),
            "All Authors",
        )?;
        for (i, name) in self.author_names.clone().iter().enumerate() {
            let pubs: Vec<Tuple> = self
                .papers
                .iter()
                .filter(|p| p.authors.contains(&i))
                .map(|p| {
                    Tuple::new()
                        .with("Title", p.title.clone())
                        .with("ConfName", self.conf_names[p.conf].clone())
                        .with("Year", p.year.to_string())
                })
                .collect();
            let t = Tuple::new()
                .with("AName", name.clone())
                .with_list("PubList", pubs);
            self.site
                .publish("AuthorPage", Self::author_url(i), t, name)?;
        }
        Ok(())
    }

    // ----- oracles ----------------------------------------------------------

    /// The three most recent edition years.
    pub fn last_three_years(&self) -> Vec<u32> {
        self.years().into_iter().take(3).collect()
    }

    /// Oracle for the intro query: author names appearing in **each** of
    /// the last three VLDB editions (conference 0), sorted.
    pub fn expected_authors_last3_vldb(&self) -> Vec<String> {
        let years = self.last_three_years();
        let mut per_year: Vec<std::collections::HashSet<usize>> = Vec::new();
        for &y in &years {
            let set = self
                .papers
                .iter()
                .filter(|p| p.conf == 0 && p.year == y)
                .flat_map(|p| p.authors.iter().cloned())
                .collect();
            per_year.push(set);
        }
        let mut result: Vec<String> = per_year
            .iter()
            .skip(1)
            .fold(per_year[0].clone(), |acc, s| {
                acc.intersection(s).cloned().collect()
            })
            .into_iter()
            .map(|i| self.author_names[i].clone())
            .collect();
        result.sort();
        result
    }

    /// Oracle: editors of a given conference edition.
    pub fn expected_editors(&self, conf: usize, year: u32) -> String {
        self.editors_of(conf, year)
    }

    /// Number of authors.
    pub fn author_count(&self) -> usize {
        self.author_names.len()
    }

    /// The configuration used for generation.
    pub fn config(&self) -> &BibConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Bibliography {
        Bibliography::generate(BibConfig {
            authors: 40,
            conferences: 6,
            db_conferences: 3,
            featured: 2,
            editions_per_conf: 4,
            papers_per_edition: 6,
            seed: 11,
            ..BibConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn page_counts() {
        let b = small();
        assert_eq!(b.site.cardinality("ConfPage"), 6);
        assert_eq!(b.site.cardinality("EditionPage"), 24);
        assert_eq!(b.site.cardinality("AuthorPage"), 40);
        assert_eq!(b.site.cardinality("BibHomePage"), 1);
    }

    #[test]
    fn constraints_hold() {
        let b = small();
        let v = b.site.verify_constraints();
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn vldb_is_conference_zero_and_featured() {
        let b = small();
        let home = b
            .site
            .ground_truth("BibHomePage", &Bibliography::home_url())
            .unwrap();
        let featured = home.get("Featured").unwrap().as_list().unwrap();
        assert!(featured
            .iter()
            .any(|t| t.get("ConfName").unwrap().as_text() == Some("VLDB")));
    }

    #[test]
    fn db_conferences_subset_of_all() {
        let b = small();
        let all = b
            .site
            .ground_truth("ConfListPage", &Url::new("/bib/confs.html"))
            .unwrap()
            .get("ConfList")
            .unwrap()
            .as_list()
            .unwrap()
            .len();
        let db = b
            .site
            .ground_truth("DBConfListPage", &Url::new("/bib/dbconfs.html"))
            .unwrap()
            .get("ConfList")
            .unwrap()
            .as_list()
            .unwrap()
            .len();
        assert!(db < all);
    }

    #[test]
    fn editors_replicated_on_conf_page() {
        let b = small();
        let conf = b
            .site
            .ground_truth("ConfPage", &Bibliography::conf_url(0))
            .unwrap();
        let editions = conf.get("EditionList").unwrap().as_list().unwrap();
        for ed in editions {
            let year: u32 = ed.get("Year").unwrap().as_text().unwrap().parse().unwrap();
            assert_eq!(
                ed.get("Editors").unwrap().as_text().unwrap(),
                b.expected_editors(0, year)
            );
        }
    }

    #[test]
    fn oracle_intersection_is_sound() {
        let b = Bibliography::generate(BibConfig {
            authors: 10,
            conferences: 2,
            db_conferences: 1,
            featured: 1,
            editions_per_conf: 3,
            papers_per_edition: 15,
            max_authors_per_paper: 3,
            seed: 3,
        })
        .unwrap();
        // With 10 authors and 45 author slots/edition, intersection is
        // likely non-empty; verify membership by recomputation.
        let expected = b.expected_authors_last3_vldb();
        for name in &expected {
            for &y in &b.last_three_years() {
                let in_year = b.papers.iter().any(|p| {
                    p.conf == 0
                        && p.year == y
                        && p.authors.iter().any(|&a| &b.author_names[a] == name)
                });
                assert!(in_year, "{name} missing from VLDB {y}");
            }
        }
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Bibliography::generate(BibConfig {
            db_conferences: 0,
            ..BibConfig::default()
        })
        .is_err());
        assert!(Bibliography::generate(BibConfig {
            featured: 99,
            ..BibConfig::default()
        })
        .is_err());
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(
            a.expected_authors_last3_vldb(),
            b.expected_authors_last3_vldb()
        );
    }
}
