//! The university web site of the paper's Figure 1.
//!
//! Page-schemes: `HomePage`, `DeptListPage`, `DeptPage`, `ProfListPage`,
//! `ProfPage`, `SessionListPage`, `SessionPage`, `CoursePage`. The four
//! list/home pages are entry points. Link constraints document anchor
//! replication (e.g. `ProfPage.DName = DeptPage.DName`,
//! `SessionPage.Session = CoursePage.Session` — both given verbatim in the
//! paper); inclusion constraints document the multiple navigation paths to
//! professors and courses.
//!
//! The generator is deterministic in the seed, publishes real HTML pages,
//! and exposes *oracles* (ground-truth external relations) plus a mutation
//! API used by the materialized-view experiments.

use crate::error::SiteError;
use crate::site::Site;
use crate::sitegen::names;
use crate::Result;
use adm::{
    Field, InclusionConstraint, LinkConstraint, PageScheme, Tuple, Url, Value, WebScheme, WebType,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Configuration of the generated university site.
///
/// The defaults are the exact parameters of the paper's Example 7.2:
/// "with 50 courses, 20 professors and 3 departments, the second cost
/// amounts to 23 approximately, whereas the first is well over 50".
#[derive(Debug, Clone)]
pub struct UniversityConfig {
    /// Number of departments.
    pub departments: usize,
    /// Number of professors.
    pub professors: usize,
    /// Number of courses.
    pub courses: usize,
    /// Session names (the paper's examples assume 3, selectivity 1/3).
    pub sessions: Vec<String>,
    /// Fraction of professors with a missing (null) e-mail, in percent.
    pub null_email_pct: u32,
    /// RNG seed; equal seeds produce identical sites.
    pub seed: u64,
}

impl Default for UniversityConfig {
    fn default() -> Self {
        UniversityConfig {
            departments: 3,
            professors: 20,
            courses: 50,
            sessions: vec!["Fall".into(), "Winter".into(), "Summer".into()],
            null_email_pct: 10,
            seed: 4242,
        }
    }
}

#[derive(Debug, Clone)]
struct DeptRec {
    name: String,
    address: String,
}

#[derive(Debug, Clone)]
struct ProfRec {
    name: String,
    rank: String,
    email: Option<String>,
    dept: usize,
}

#[derive(Debug, Clone)]
struct CourseRec {
    name: String,
    session: String,
    ctype: String,
    description: String,
    prof: usize,
}

/// A generated university site: the [`Site`] plus generator state enabling
/// oracles and incremental mutations.
#[derive(Debug)]
pub struct University {
    /// The published site.
    pub site: Site,
    cfg: UniversityConfig,
    depts: Vec<DeptRec>,
    profs: Vec<ProfRec>,
    courses: BTreeMap<usize, CourseRec>,
    next_course_id: usize,
}

/// Builds the ADM scheme of Figure 1.
pub fn university_scheme() -> Result<WebScheme> {
    let home = PageScheme::new(
        "HomePage",
        vec![
            Field::link("ToDeptList", "DeptListPage"),
            Field::link("ToProfList", "ProfListPage"),
            Field::link("ToSessionList", "SessionListPage"),
        ],
    )?;
    let dept_list = PageScheme::new(
        "DeptListPage",
        vec![Field::list(
            "DeptList",
            vec![Field::text("DName"), Field::link("ToDept", "DeptPage")],
        )],
    )?;
    let dept = PageScheme::new(
        "DeptPage",
        vec![
            Field::text("DName"),
            Field::text("Address"),
            Field::list(
                "ProfList",
                vec![Field::text("PName"), Field::link("ToProf", "ProfPage")],
            ),
        ],
    )?;
    let prof_list = PageScheme::new(
        "ProfListPage",
        vec![Field::list(
            "ProfList",
            vec![Field::text("PName"), Field::link("ToProf", "ProfPage")],
        )],
    )?;
    let prof = PageScheme::new(
        "ProfPage",
        vec![
            Field::text("PName"),
            Field::text("Rank"),
            Field::optional("Email", WebType::Text),
            Field::text("DName"),
            Field::link("ToDept", "DeptPage"),
            Field::list(
                "CourseList",
                vec![Field::text("CName"), Field::link("ToCourse", "CoursePage")],
            ),
        ],
    )?;
    let session_list = PageScheme::new(
        "SessionListPage",
        vec![Field::list(
            "SesList",
            vec![Field::text("Session"), Field::link("ToSes", "SessionPage")],
        )],
    )?;
    let session = PageScheme::new(
        "SessionPage",
        vec![
            Field::text("Session"),
            Field::list(
                "CourseList",
                vec![Field::text("CName"), Field::link("ToCourse", "CoursePage")],
            ),
        ],
    )?;
    let course = PageScheme::new(
        "CoursePage",
        vec![
            Field::text("CName"),
            Field::text("Session"),
            Field::text("Description"),
            Field::text("Type"),
            Field::text("PName"),
            Field::link("ToProf", "ProfPage"),
        ],
    )?;

    let lc = |link: &str, src: &str, tgt: &str| LinkConstraint::parse(link, src, tgt);
    let ic = |sub: &str, sup: &str| InclusionConstraint::parse(sub, sup);

    Ok(WebScheme::builder()
        .scheme(home)
        .scheme(dept_list)
        .scheme(dept)
        .scheme(prof_list)
        .scheme(prof)
        .scheme(session_list)
        .scheme(session)
        .scheme(course)
        .entry_point("HomePage", "/univ/index.html")
        .entry_point("DeptListPage", "/univ/depts.html")
        .entry_point("ProfListPage", "/univ/profs.html")
        .entry_point("SessionListPage", "/univ/sessions.html")
        // Anchor replication along every link (Section 3.2).
        .link_constraint(lc(
            "DeptListPage.DeptList.ToDept",
            "DeptListPage.DeptList.DName",
            "DeptPage.DName",
        )?)
        .link_constraint(lc(
            "DeptPage.ProfList.ToProf",
            "DeptPage.ProfList.PName",
            "ProfPage.PName",
        )?)
        .link_constraint(lc(
            "ProfListPage.ProfList.ToProf",
            "ProfListPage.ProfList.PName",
            "ProfPage.PName",
        )?)
        // The two constraints quoted verbatim in the paper:
        .link_constraint(lc("ProfPage.ToDept", "ProfPage.DName", "DeptPage.DName")?)
        .link_constraint(lc(
            "SessionPage.CourseList.ToCourse",
            "SessionPage.Session",
            "CoursePage.Session",
        )?)
        .link_constraint(lc(
            "ProfPage.CourseList.ToCourse",
            "ProfPage.CourseList.CName",
            "CoursePage.CName",
        )?)
        .link_constraint(lc(
            "SessionListPage.SesList.ToSes",
            "SessionListPage.SesList.Session",
            "SessionPage.Session",
        )?)
        .link_constraint(lc(
            "SessionPage.CourseList.ToCourse",
            "SessionPage.CourseList.CName",
            "CoursePage.CName",
        )?)
        .link_constraint(lc(
            "CoursePage.ToProf",
            "CoursePage.PName",
            "ProfPage.PName",
        )?)
        // The inclusion constraints quoted in the paper (Section 3.2):
        .inclusion(ic("CoursePage.ToProf", "ProfListPage.ProfList.ToProf")?)
        .inclusion(ic(
            "DeptPage.ProfList.ToProf",
            "ProfListPage.ProfList.ToProf",
        )?)
        // Courses reachable through instructors are a subset of the courses
        // listed under sessions (Section 5).
        .inclusion(ic(
            "ProfPage.CourseList.ToCourse",
            "SessionPage.CourseList.ToCourse",
        )?)
        .build()?)
}

impl University {
    /// Generates a university site from a configuration.
    pub fn generate(cfg: UniversityConfig) -> Result<University> {
        if cfg.departments == 0 || cfg.professors < cfg.departments || cfg.sessions.is_empty() {
            return Err(SiteError::BadConfig(
                "need ≥1 department, ≥1 session, and at least as many professors as departments"
                    .into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dept_names = names::department_names(cfg.departments);
        let depts: Vec<DeptRec> = dept_names
            .iter()
            .enumerate()
            .map(|(i, n)| DeptRec {
                name: n.clone(),
                address: format!("Building {}, Campus Road {}", i + 1, 10 + i),
            })
            .collect();
        let prof_names = names::person_names(&mut rng, cfg.professors);
        let ranks = ["Full", "Associate", "Assistant"];
        let profs: Vec<ProfRec> = prof_names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                // First `departments` professors are spread one per
                // department so no department is empty; the rest random.
                let dept = if i < cfg.departments {
                    i
                } else {
                    rng.gen_range(0..cfg.departments)
                };
                let email = if rng.gen_range(0..100) < cfg.null_email_pct {
                    None
                } else {
                    Some(format!("{}@uni.example", names::slug(n)))
                };
                ProfRec {
                    name: n.clone(),
                    rank: ranks[rng.gen_range(0..ranks.len())].to_string(),
                    email,
                    dept,
                }
            })
            .collect();
        let course_names = names::course_names(&mut rng, cfg.courses);
        let mut courses = BTreeMap::new();
        for (i, n) in course_names.iter().enumerate() {
            courses.insert(
                i,
                CourseRec {
                    name: n.clone(),
                    session: cfg.sessions[rng.gen_range(0..cfg.sessions.len())].clone(),
                    ctype: if rng.gen_bool(0.5) {
                        "Graduate".to_string()
                    } else {
                        "Undergraduate".to_string()
                    },
                    description: names::description(&mut rng),
                    prof: rng.gen_range(0..cfg.professors),
                },
            );
        }
        let mut u = University {
            site: Site::new("university", university_scheme()?),
            next_course_id: courses.len(),
            cfg,
            depts,
            profs,
            courses,
        };
        u.render_all()?;
        Ok(u)
    }

    /// Generates the default (paper-parameter) site.
    pub fn default_site() -> Result<University> {
        University::generate(UniversityConfig::default())
    }

    // ----- URLs ---------------------------------------------------------

    /// URL of the home page.
    pub fn home_url() -> Url {
        Url::new("/univ/index.html")
    }

    /// URL of a department page.
    pub fn dept_url(i: usize) -> Url {
        Url::new(format!("/univ/dept/{i}.html"))
    }

    /// URL of a professor page.
    pub fn prof_url(i: usize) -> Url {
        Url::new(format!("/univ/prof/{i}.html"))
    }

    /// URL of a session page.
    pub fn session_url(name: &str) -> Url {
        Url::new(format!("/univ/session/{}.html", names::slug(name)))
    }

    /// URL of a course page.
    pub fn course_url(id: usize) -> Url {
        Url::new(format!("/univ/course/{id}.html"))
    }

    // ----- rendering ------------------------------------------------------

    fn render_all(&mut self) -> Result<()> {
        self.render_home()?;
        self.render_dept_list()?;
        self.render_prof_list()?;
        self.render_session_list()?;
        for i in 0..self.depts.len() {
            self.render_dept(i, false)?;
        }
        for i in 0..self.profs.len() {
            self.render_prof(i, false)?;
        }
        for s in self.cfg.sessions.clone() {
            self.render_session(&s, false)?;
        }
        for id in self.courses.keys().cloned().collect::<Vec<_>>() {
            self.render_course(id, false)?;
        }
        Ok(())
    }

    fn publish(
        &mut self,
        scheme: &str,
        url: Url,
        tuple: Tuple,
        title: &str,
        update: bool,
    ) -> Result<()> {
        if update {
            self.site.republish(scheme, url, tuple, title)
        } else {
            self.site.publish(scheme, url, tuple, title)
        }
    }

    fn render_home(&mut self) -> Result<()> {
        let t = Tuple::new()
            .with("ToDeptList", Value::link("/univ/depts.html"))
            .with("ToProfList", Value::link("/univ/profs.html"))
            .with("ToSessionList", Value::link("/univ/sessions.html"));
        self.publish("HomePage", Self::home_url(), t, "University Home", false)
    }

    fn render_dept_list(&mut self) -> Result<()> {
        let rows = self
            .depts
            .iter()
            .enumerate()
            .map(|(i, d)| {
                Tuple::new()
                    .with("DName", d.name.clone())
                    .with("ToDept", Value::link(Self::dept_url(i)))
            })
            .collect();
        let t = Tuple::new().with_list("DeptList", rows);
        self.publish(
            "DeptListPage",
            Url::new("/univ/depts.html"),
            t,
            "Departments",
            false,
        )
    }

    fn render_prof_list(&mut self) -> Result<()> {
        let rows = self
            .profs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Tuple::new()
                    .with("PName", p.name.clone())
                    .with("ToProf", Value::link(Self::prof_url(i)))
            })
            .collect();
        let t = Tuple::new().with_list("ProfList", rows);
        self.publish(
            "ProfListPage",
            Url::new("/univ/profs.html"),
            t,
            "All Professors",
            false,
        )
    }

    fn render_session_list(&mut self) -> Result<()> {
        let rows = self
            .cfg
            .sessions
            .iter()
            .map(|s| {
                Tuple::new()
                    .with("Session", s.clone())
                    .with("ToSes", Value::link(Self::session_url(s)))
            })
            .collect();
        let t = Tuple::new().with_list("SesList", rows);
        self.publish(
            "SessionListPage",
            Url::new("/univ/sessions.html"),
            t,
            "Sessions",
            false,
        )
    }

    fn render_dept(&mut self, i: usize, update: bool) -> Result<()> {
        let d = self.depts[i].clone();
        let rows = self
            .profs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dept == i)
            .map(|(j, p)| {
                Tuple::new()
                    .with("PName", p.name.clone())
                    .with("ToProf", Value::link(Self::prof_url(j)))
            })
            .collect();
        let t = Tuple::new()
            .with("DName", d.name.clone())
            .with("Address", d.address.clone())
            .with_list("ProfList", rows);
        self.publish("DeptPage", Self::dept_url(i), t, &d.name, update)
    }

    fn render_prof(&mut self, i: usize, update: bool) -> Result<()> {
        let p = self.profs[i].clone();
        let rows = self
            .courses
            .iter()
            .filter(|(_, c)| c.prof == i)
            .map(|(id, c)| {
                Tuple::new()
                    .with("CName", c.name.clone())
                    .with("ToCourse", Value::link(Self::course_url(*id)))
            })
            .collect();
        let mut t = Tuple::new()
            .with("PName", p.name.clone())
            .with("Rank", p.rank.clone());
        t = match &p.email {
            Some(e) => t.with("Email", e.clone()),
            None => t.with_null("Email"),
        };
        let t = t
            .with("DName", self.depts[p.dept].name.clone())
            .with("ToDept", Value::link(Self::dept_url(p.dept)))
            .with_list("CourseList", rows);
        self.publish("ProfPage", Self::prof_url(i), t, &p.name, update)
    }

    fn render_session(&mut self, session: &str, update: bool) -> Result<()> {
        let rows = self
            .courses
            .iter()
            .filter(|(_, c)| c.session == session)
            .map(|(id, c)| {
                Tuple::new()
                    .with("CName", c.name.clone())
                    .with("ToCourse", Value::link(Self::course_url(*id)))
            })
            .collect();
        let t = Tuple::new()
            .with("Session", session.to_string())
            .with_list("CourseList", rows);
        self.publish(
            "SessionPage",
            Self::session_url(session),
            t,
            &format!("{session} Session"),
            update,
        )
    }

    fn render_course(&mut self, id: usize, update: bool) -> Result<()> {
        let c = self.courses[&id].clone();
        let t = Tuple::new()
            .with("CName", c.name.clone())
            .with("Session", c.session.clone())
            .with("Description", c.description.clone())
            .with("Type", c.ctype.clone())
            .with("PName", self.profs[c.prof].name.clone())
            .with("ToProf", Value::link(Self::prof_url(c.prof)));
        self.publish("CoursePage", Self::course_url(id), t, &c.name, update)
    }

    // ----- mutations (the autonomous site manager) -----------------------

    /// Rewrites a course's description; only the course page changes.
    pub fn update_course_description(&mut self, id: usize, text: impl Into<String>) -> Result<()> {
        let c = self
            .courses
            .get_mut(&id)
            .ok_or_else(|| SiteError::BadConfig(format!("no course {id}")))?;
        c.description = text.into();
        self.render_course(id, true)
    }

    /// Changes a professor's e-mail; only their page changes.
    pub fn update_prof_email(&mut self, i: usize, email: Option<String>) -> Result<()> {
        if i >= self.profs.len() {
            return Err(SiteError::BadConfig(format!("no professor {i}")));
        }
        self.profs[i].email = email;
        self.render_prof(i, true)
    }

    /// Adds a new course taught by professor `prof`: publishes a new course
    /// page and updates the professor's and the session's pages.
    pub fn add_course(&mut self, prof: usize, session: &str, ctype: &str) -> Result<usize> {
        if prof >= self.profs.len() {
            return Err(SiteError::BadConfig(format!("no professor {prof}")));
        }
        if !self.cfg.sessions.iter().any(|s| s == session) {
            return Err(SiteError::BadConfig(format!("no session {session}")));
        }
        let id = self.next_course_id;
        self.next_course_id += 1;
        self.courses.insert(
            id,
            CourseRec {
                name: format!("Special Topics {}", 100 + id),
                session: session.to_string(),
                ctype: ctype.to_string(),
                description: "A newly added course.".to_string(),
                prof,
            },
        );
        self.render_course(id, true)?;
        self.render_prof(prof, true)?;
        self.render_session(session, true)?;
        Ok(id)
    }

    /// Hires a new professor into a department: publishes their page and
    /// updates the professor-list and department pages.
    pub fn add_professor(&mut self, dept: usize, rank: &str) -> Result<usize> {
        if dept >= self.depts.len() {
            return Err(SiteError::BadConfig(format!("no department {dept}")));
        }
        let i = self.profs.len();
        let name = format!("New Hire {i}");
        self.profs.push(ProfRec {
            email: Some(format!("new-hire-{i}@uni.example")),
            name,
            rank: rank.to_string(),
            dept,
        });
        self.render_prof(i, true)?;
        self.render_prof_list_update()?;
        self.render_dept(dept, true)?;
        Ok(i)
    }

    fn render_prof_list_update(&mut self) -> Result<()> {
        let rows = self
            .profs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Tuple::new()
                    .with("PName", p.name.clone())
                    .with("ToProf", Value::link(Self::prof_url(i)))
            })
            .collect();
        let t = Tuple::new().with_list("ProfList", rows);
        self.publish(
            "ProfListPage",
            Url::new("/univ/profs.html"),
            t,
            "All Professors",
            true,
        )
    }

    /// Removes a course: deletes its page and updates the professor's and
    /// session's pages (dangling links are what URLCheck must detect).
    pub fn remove_course(&mut self, id: usize) -> Result<()> {
        let c = self
            .courses
            .remove(&id)
            .ok_or_else(|| SiteError::BadConfig(format!("no course {id}")))?;
        self.site.unpublish("CoursePage", &Self::course_url(id));
        self.render_prof(c.prof, true)?;
        self.render_session(&c.session, true)?;
        Ok(())
    }

    // ----- oracles --------------------------------------------------------

    /// Ground truth for the external relation `Dept(DName, Address)`.
    pub fn expected_dept(&self) -> Vec<(String, String)> {
        self.depts
            .iter()
            .map(|d| (d.name.clone(), d.address.clone()))
            .collect()
    }

    /// Ground truth for `Professor(PName, Rank, Email)`.
    pub fn expected_professor(&self) -> Vec<(String, String, Option<String>)> {
        self.profs
            .iter()
            .map(|p| (p.name.clone(), p.rank.clone(), p.email.clone()))
            .collect()
    }

    /// Ground truth for `Course(CName, Session, Description, Type)`.
    pub fn expected_course(&self) -> Vec<(String, String, String, String)> {
        self.courses
            .values()
            .map(|c| {
                (
                    c.name.clone(),
                    c.session.clone(),
                    c.description.clone(),
                    c.ctype.clone(),
                )
            })
            .collect()
    }

    /// Ground truth for `CourseInstructor(CName, PName)`.
    pub fn expected_course_instructor(&self) -> Vec<(String, String)> {
        self.courses
            .values()
            .map(|c| (c.name.clone(), self.profs[c.prof].name.clone()))
            .collect()
    }

    /// Ground truth for `ProfDept(PName, DName)`.
    pub fn expected_prof_dept(&self) -> Vec<(String, String)> {
        self.profs
            .iter()
            .map(|p| (p.name.clone(), self.depts[p.dept].name.clone()))
            .collect()
    }

    /// Number of courses currently on the site.
    pub fn course_count(&self) -> usize {
        self.courses.len()
    }

    /// Number of professors.
    pub fn prof_count(&self) -> usize {
        self.profs.len()
    }

    /// Current course ids (useful for picking mutation targets).
    pub fn course_ids(&self) -> Vec<usize> {
        self.courses.keys().cloned().collect()
    }

    /// The configuration the site was generated from.
    pub fn config(&self) -> &UniversityConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> University {
        University::generate(UniversityConfig {
            departments: 2,
            professors: 5,
            courses: 8,
            seed: 1,
            ..UniversityConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn page_counts_match_config() {
        let u = small();
        assert_eq!(u.site.cardinality("DeptPage"), 2);
        assert_eq!(u.site.cardinality("ProfPage"), 5);
        assert_eq!(u.site.cardinality("CoursePage"), 8);
        assert_eq!(u.site.cardinality("SessionPage"), 3);
        // home + 3 list pages + the above
        assert_eq!(u.site.total_pages(), 4 + 2 + 5 + 8 + 3);
    }

    #[test]
    fn constraints_hold_on_generated_site() {
        let u = small();
        let violations = u.site.verify_constraints();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn default_site_matches_paper_parameters() {
        let u = University::default_site().unwrap();
        assert_eq!(u.site.cardinality("CoursePage"), 50);
        assert_eq!(u.site.cardinality("ProfPage"), 20);
        assert_eq!(u.site.cardinality("DeptPage"), 3);
        assert!(u.site.verify_constraints().is_empty());
    }

    #[test]
    fn deterministic_generation() {
        let a = small();
        let b = small();
        assert_eq!(
            a.expected_course_instructor(),
            b.expected_course_instructor()
        );
        let url = University::prof_url(0);
        assert_eq!(
            a.site.server.get(&url).unwrap().body,
            b.site.server.get(&url).unwrap().body
        );
    }

    #[test]
    fn no_department_is_empty() {
        let u = small();
        for (_, t) in u.site.instance("DeptPage") {
            let profs = t.get("ProfList").unwrap().as_list().unwrap();
            assert!(!profs.is_empty());
        }
    }

    #[test]
    fn update_description_touches_only_course_page() {
        let mut u = small();
        let course = University::course_url(0);
        let prof = University::prof_url(0);
        let t_course0 = u.site.server.head(&course).unwrap().last_modified;
        let t_prof0 = u.site.server.head(&prof).unwrap().last_modified;
        u.update_course_description(0, "New description").unwrap();
        assert!(u.site.server.head(&course).unwrap().last_modified > t_course0);
        assert_eq!(u.site.server.head(&prof).unwrap().last_modified, t_prof0);
    }

    #[test]
    fn add_course_updates_prof_and_session() {
        let mut u = small();
        let before = u.course_count();
        let id = u.add_course(1, "Fall", "Graduate").unwrap();
        assert_eq!(u.course_count(), before + 1);
        assert!(u.site.server.exists(&University::course_url(id)));
        // professor's page now lists the course
        let t = u
            .site
            .ground_truth("ProfPage", &University::prof_url(1))
            .unwrap();
        let courses = t.get("CourseList").unwrap().as_list().unwrap();
        assert!(courses
            .iter()
            .any(|c| c.get("ToCourse").unwrap().as_link().unwrap() == &University::course_url(id)));
        assert!(u.site.verify_constraints().is_empty());
    }

    #[test]
    fn remove_course_keeps_constraints() {
        let mut u = small();
        u.remove_course(3).unwrap();
        assert!(!u.site.server.exists(&University::course_url(3)));
        assert!(u.site.verify_constraints().is_empty());
    }

    #[test]
    fn add_professor_updates_lists_and_keeps_constraints() {
        let mut u = small();
        let before = u.prof_count();
        let i = u.add_professor(1, "Assistant").unwrap();
        assert_eq!(u.prof_count(), before + 1);
        assert!(u.site.server.exists(&University::prof_url(i)));
        // the professor list now includes the hire
        let list = u
            .site
            .ground_truth("ProfListPage", &Url::new("/univ/profs.html"))
            .unwrap();
        assert_eq!(
            list.get("ProfList").unwrap().as_list().unwrap().len(),
            before + 1
        );
        assert!(u.site.verify_constraints().is_empty());
        assert!(u.add_professor(99, "Full").is_err());
    }

    #[test]
    fn oracles_are_consistent() {
        let u = small();
        assert_eq!(u.expected_professor().len(), 5);
        assert_eq!(u.expected_course().len(), 8);
        assert_eq!(u.expected_course_instructor().len(), 8);
        let profs: std::collections::HashSet<String> =
            u.expected_professor().into_iter().map(|p| p.0).collect();
        for (_, p) in u.expected_course_instructor() {
            assert!(profs.contains(&p));
        }
    }

    #[test]
    fn rejects_bad_config() {
        assert!(University::generate(UniversityConfig {
            departments: 0,
            ..UniversityConfig::default()
        })
        .is_err());
        assert!(University::generate(UniversityConfig {
            departments: 10,
            professors: 5,
            ..UniversityConfig::default()
        })
        .is_err());
    }

    #[test]
    fn scheme_has_paper_constraints() {
        let ws = university_scheme().unwrap();
        // the two verbatim link constraints
        assert!(ws.link_constraints().iter().any(|c| {
            c.source_attr.qualified() == "ProfPage.DName"
                && c.target_attr.qualified() == "DeptPage.DName"
        }));
        assert!(ws.link_constraints().iter().any(|c| {
            c.source_attr.qualified() == "SessionPage.Session"
                && c.target_attr.qualified() == "CoursePage.Session"
        }));
        // the two verbatim inclusion constraints
        let sub = adm::AttrRef::parse("CoursePage.ToProf").unwrap();
        let sup = adm::AttrRef::parse("ProfListPage.ProfList.ToProf").unwrap();
        assert!(ws.inclusion_implied(&sub, &sup));
    }
}
