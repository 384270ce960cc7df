//! Experiment harness: one function per experiment of `EXPERIMENTS.md`.
//!
//! The paper's evaluation is analytical (worked examples with closed-form
//! page-access costs); every quantitative claim and every figure is
//! regenerated here:
//!
//! | id | paper source | function |
//! |----|--------------|----------|
//! | E1 | §1 intro — four navigation strategies | [`e1_intro_strategies`] |
//! | E2 | Example 7.1 / Figure 3 — pointer join | [`e2_pointer_join`] |
//! | E3 | Example 7.2 / Figure 4 — pointer chase | [`e3_pointer_chase`] |
//! | E4 | §6.2 — cost-model validation | [`e4_cost_model`] |
//! | E5 | §8 — materialized-view maintenance | [`e5_materialized_views`] |
//! | E6 | §6.3 — optimizer wins over naive plans | [`e6_optimizer_wins`] |
//! | E7 | Figures 2–4 — query plans | [`e7_figures`] |
//! | E8 | §6–7 — rule ablations | [`e8_ablation`] |
//! | F1 | Figure 1 — the web schemes + constraint checks | [`f1_schemes`] |
//!
//! [`EXPERIMENTS`] fixes the scale of every deterministic experiment: the
//! harness prints it and `tests/golden.rs` pins it.

pub mod dataflow_x6;
pub mod deadline_x8;
pub mod fixtures;
pub mod serving;
pub mod table;
pub mod tracecmd;

pub use dataflow_x6::{x6_dataflow, DataflowConfig, DataflowSmoke};
pub use deadline_x8::{x8_deadline, DeadlineLoadConfig, DeadlineSmoke};
pub use serving::{x5_serving, ServeLoadConfig, ServeSmoke};

use fixtures::*;
use nalg::{EvalPolicy, Evaluator};
use obs::trace::TraceSink;
use table::Table;
use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
use wvcore::{
    ConjunctiveQuery, ExecPolicy, ExplainAnalyze, LiveSource, Optimizer, QuerySession, RuleMask,
    SiteStatistics,
};

/// What one experiment renders: free text (F1's schemes, E7's plan trees,
/// XA's per-operator reports), then its count table, if it has one.
pub struct Output {
    /// Printed before the table; empty for a table-only experiment.
    pub text: String,
    /// The count table.
    pub table: Option<Table>,
}

impl Output {
    /// A table-only output.
    pub fn table(table: Table) -> Self {
        Output {
            text: String::new(),
            table: Some(table),
        }
    }

    /// A text-only output.
    pub fn text(text: String) -> Self {
        Output { text, table: None }
    }

    /// The golden form: the table in markdown, as EXPERIMENTS.md quotes
    /// it, or the text of a table-less experiment.
    pub fn golden(&self) -> String {
        match &self.table {
            Some(t) => t.render_markdown(),
            None => self.text.clone(),
        }
    }

    /// What the harness prints: the text, then the table padded or in
    /// markdown.
    pub fn render(&self, markdown: bool) -> String {
        let mut out = String::new();
        if !self.text.is_empty() {
            out.push_str(&self.text);
            out.push('\n');
        }
        if let Some(t) = &self.table {
            out.push_str(&if markdown {
                t.render_markdown()
            } else {
                t.render()
            });
            out.push('\n');
        }
        out
    }
}

/// Renders one experiment of [`EXPERIMENTS`].
pub type Render = fn() -> Output;

/// Every deterministic experiment, in harness order, as `(id, render)` at
/// the scale the harness prints. `crates/bench/tests/golden.rs` pins each
/// render against `tests/golden/<id>.{md,txt}`; X5 and X8 are left out
/// because their cells are wall-clock or load-dependent.
pub const EXPERIMENTS: &[(&str, Render)] = &[
    ("f1", || Output::text(f1_schemes())),
    ("e1", || {
        Output::table(e1_intro_strategies(&[100, 400, 1600]))
    }),
    ("e2", || Output::table(e2_pointer_join(&[20, 50, 100, 200]))),
    ("e3", || Output::table(e3_pointer_chase(&[1, 2, 3, 4, 6]))),
    ("e4", || Output::table(e4_cost_model())),
    ("e5", || {
        Output::table(e5_materialized_views(&[0, 1, 5, 10, 25, 50]))
    }),
    ("e5b", || Output::table(e5_structural())),
    ("e6", || Output::table(e6_optimizer_wins())),
    ("e7", || Output::text(e7_figures())),
    ("e8", || Output::table(e8_ablation())),
    ("x2", || Output::table(x2_shared_cache())),
    ("x3", || Output::table(x3_chaos(&[0, 20, 40, 60]))),
    ("x4a", || Output::table(x4_drift(3).accuracy)),
    ("x4b", || Output::table(x4_drift(3).pages)),
    ("x6", || {
        Output::table(x6_dataflow(&DataflowConfig::default()).table)
    }),
    ("xa", || {
        let xa = xa_explain_analyze();
        Output {
            text: xa.reports,
            table: Some(xa.table),
        }
    }),
];

/// E1 — the introduction's four strategies for "authors who had papers in
/// the last three VLDB conferences", swept over the author population.
pub fn e1_intro_strategies(author_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E1 — §1: four navigation strategies, page accesses (cost model) / downloads / KB",
        vec![
            "authors",
            "S1 conf-list",
            "S2 db-list",
            "S3 featured",
            "S4 author-first",
        ],
    );
    for &authors in author_counts {
        let bib = Bibliography::generate(BibConfig {
            authors,
            papers_per_edition: 20,
            ..BibConfig::default()
        })
        .expect("bib generation");
        let source = LiveSource::for_site(&bib.site);
        let years = bib.last_three_years();
        let mut cells = vec![authors.to_string()];
        for plan in intro_strategies(&years) {
            bib.site.server.reset_stats();
            let report = Evaluator::new(&bib.site.scheme, &source)
                .eval(&plan)
                .expect("strategy evaluates");
            let bytes = bib.site.server.stats().bytes;
            cells.push(format!(
                "{} / {} / {:.0}",
                report.cost_model_accesses(),
                report.page_accesses,
                bytes as f64 / 1024.0
            ));
        }
        t.row(cells);
    }
    t
}

/// E2 — Example 7.1: pointer join vs pointer chase, swept over the number
/// of courses. Reports estimated and measured page accesses of the paper's
/// two plans and the optimizer's choice.
pub fn e2_pointer_join(course_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E2 — Example 7.1: est/meas pages — paper plan (1d) pointer-join vs (2d) pointer-chase",
        vec![
            "courses",
            "plan 1d (join)",
            "plan 2d (chase)",
            "optimizer best",
            "winner",
        ],
    );
    for &courses in course_counts {
        let u = University::generate(UniversityConfig {
            courses,
            ..UniversityConfig::default()
        })
        .expect("site");
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = wvcore::views::university_catalog();
        let source = LiveSource::for_site(&u.site);
        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);

        let join_plan = example_71_plan_1d();
        let chase_plan = example_71_plan_2d();
        let join_est = wvcore::cost::estimate(&join_plan, &u.site.scheme, &stats)
            .expect("estimate")
            .cost
            .pages;
        let chase_est = wvcore::cost::estimate(&chase_plan, &u.site.scheme, &stats)
            .expect("estimate")
            .cost
            .pages;
        let join_meas = session
            .execute(&join_plan)
            .expect("run")
            .cost_model_accesses();
        let chase_meas = session
            .execute(&chase_plan)
            .expect("run")
            .cost_model_accesses();
        let best = session.explain(&query_71()).expect("optimize");
        let best_est = best.best().estimate.cost.pages;
        let best_meas = session
            .execute(&best.best().expr)
            .expect("run")
            .cost_model_accesses();
        t.row(vec![
            courses.to_string(),
            format!("{join_est:.1} / {join_meas}"),
            format!("{chase_est:.1} / {chase_meas}"),
            format!("{best_est:.1} / {best_meas}"),
            if join_meas <= chase_meas {
                "join"
            } else {
                "chase"
            }
            .to_string(),
        ]);
    }
    t
}

/// E3 — Example 7.2: pointer chase vs pointer join, swept over the number
/// of departments (the chase's selectivity lever). At the paper's
/// parameters (3 departments) the chase wins ≈25 vs >50; with a single
/// department the crossover flips.
pub fn e3_pointer_chase(department_counts: &[usize]) -> Table {
    let mut t = Table::new(
        "E3 — Example 7.2: est/meas pages — paper plan (1) pointer-join vs (2) pointer-chase",
        vec![
            "departments",
            "plan 1 (join)",
            "plan 2 (chase)",
            "optimizer best",
            "winner",
        ],
    );
    for &departments in department_counts {
        let u = University::generate(UniversityConfig {
            departments,
            ..UniversityConfig::default()
        })
        .expect("site");
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = wvcore::views::university_catalog();
        let source = LiveSource::for_site(&u.site);
        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let dept_name = "Computer Science";

        let join_plan = example_72_plan_1(dept_name);
        let chase_plan = example_72_plan_2(dept_name);
        let join_est = wvcore::cost::estimate(&join_plan, &u.site.scheme, &stats)
            .expect("estimate")
            .cost
            .pages;
        let chase_est = wvcore::cost::estimate(&chase_plan, &u.site.scheme, &stats)
            .expect("estimate")
            .cost
            .pages;
        let join_meas = session
            .execute(&join_plan)
            .expect("run")
            .cost_model_accesses();
        let chase_meas = session
            .execute(&chase_plan)
            .expect("run")
            .cost_model_accesses();
        let best = session.explain(&query_72()).expect("optimize");
        let best_est = best.best().estimate.cost.pages;
        let best_meas = session
            .execute(&best.best().expr)
            .expect("run")
            .cost_model_accesses();
        t.row(vec![
            departments.to_string(),
            format!("{join_est:.1} / {join_meas}"),
            format!("{chase_est:.1} / {chase_meas}"),
            format!("{best_est:.1} / {best_meas}"),
            if join_meas <= chase_meas {
                "join"
            } else {
                "chase"
            }
            .to_string(),
        ]);
    }
    t
}

/// E4 — cost-model validation: estimated vs measured page accesses over
/// the whole query workload on both sites.
pub fn e4_cost_model() -> Table {
    let mut t = Table::new(
        "E4 — §6.2: cost-model validation (estimated vs measured page accesses)",
        vec!["query", "estimated", "measured", "ratio"],
    );
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let source = LiveSource::for_site(&u.site);
    let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
    for (name, q) in university_workload() {
        let outcome = session.run(&q).expect("query runs");
        let est = outcome.estimated_pages();
        let meas = outcome.measured_pages() as f64;
        t.row(vec![
            name.to_string(),
            format!("{est:.1}"),
            format!("{meas:.0}"),
            format!("{:.2}", est / meas.max(1.0)),
        ]);
    }
    let bib = Bibliography::generate(BibConfig::default()).expect("site");
    let bstats = SiteStatistics::from_site(&bib.site);
    let bcat = wvcore::views::bibliography_catalog();
    let bsource = LiveSource::for_site(&bib.site);
    let bsession = QuerySession::new(&bib.site.scheme, &bcat, &bstats, &bsource);
    for (name, q) in bibliography_workload() {
        let outcome = bsession.run(&q).expect("query runs");
        let est = outcome.estimated_pages();
        let meas = outcome.measured_pages() as f64;
        t.row(vec![
            name.to_string(),
            format!("{est:.1}"),
            format!("{meas:.0}"),
            format!("{:.2}", est / meas.max(1.0)),
        ]);
    }
    t
}

/// E5 — materialized views: per-query maintenance traffic as a function of
/// the fraction of course pages updated between queries, compared with the
/// virtual-view cost and a full eager refresh.
pub fn e5_materialized_views(update_pcts: &[u32]) -> Table {
    use matview::{MatSession, MatStore};
    use rand::SeedableRng;
    let mut t = Table::new(
        "E5 — §8: per-query maintenance cost vs site update rate (query: graduate courses)",
        vec![
            "updated %",
            "light conns",
            "downloads",
            "virtual-view pages",
            "eager refresh pages",
        ],
    );
    for &pct in update_pcts {
        let mut u = University::generate(UniversityConfig::default()).expect("site");
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = wvcore::views::university_catalog();
        let mut store = MatStore::new();
        store
            .materialize(&u.site.scheme, &u.site.server)
            .expect("materialize");
        // the site manager edits a fraction of the course pages
        let mut rng = rand::rngs::StdRng::seed_from_u64(pct as u64 + 1);
        websim::mutation::perturb_text_attr(
            &mut u.site,
            "CoursePage",
            "Description",
            pct as f64 / 100.0,
            1,
            &mut rng,
        )
        .expect("perturb");
        u.site.server.reset_stats();

        let q = ConjunctiveQuery::new("grad courses")
            .atom("Course")
            .select((0, "Type"), "Graduate")
            .project((0, "CName"))
            .project((0, "Description"));
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &q).expect("matview query");

        // baselines
        let source = LiveSource::for_site(&u.site);
        let vsession = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let virt = vsession.run(&q).expect("virtual query");
        let eager = u.site.total_pages();

        t.row(vec![
            pct.to_string(),
            out.counters.light_connections.to_string(),
            out.counters.downloads.to_string(),
            virt.measured_pages().to_string(),
            eager.to_string(),
        ]);
    }
    t
}

/// E5b — materialized views under *structural* updates: one mutation of
/// each kind, then the same query; downloads stay proportional to the
/// pages the mutation actually touched.
pub fn e5_structural() -> Table {
    use matview::{MatSession, MatStore};
    let mut t = Table::new(
        "E5b — §8: maintenance traffic per structural mutation          (query: graduate courses)",
        vec![
            "mutation",
            "light conns",
            "downloads",
            "broken links",
            "rows",
        ],
    );
    let mut u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let mut store = MatStore::new();
    store
        .materialize(&u.site.scheme, &u.site.server)
        .expect("materialize");
    let q = ConjunctiveQuery::new("grad courses")
        .atom("Course")
        .select((0, "Type"), "Graduate")
        .project((0, "CName"));
    type Mutation = Box<dyn FnOnce(&mut University)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("none (baseline)", Box::new(|_| {})),
        (
            "edit 1 course description",
            Box::new(|u| u.update_course_description(1, "edited").unwrap()),
        ),
        (
            "add 1 graduate course",
            Box::new(|u| {
                u.add_course(0, "Fall", "Graduate").unwrap();
            }),
        ),
        ("remove 1 course", Box::new(|u| u.remove_course(2).unwrap())),
        (
            "hire 1 professor",
            Box::new(|u| {
                u.add_professor(0, "Assistant").unwrap();
            }),
        ),
    ];
    for (name, mutate) in mutations {
        mutate(&mut u);
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &q).expect("matview query");
        t.row(vec![
            name.to_string(),
            out.counters.light_connections.to_string(),
            out.counters.downloads.to_string(),
            out.broken_links.to_string(),
            out.relation.len().to_string(),
        ]);
    }
    t
}

/// E6 — optimizer effectiveness: the chosen plan vs the naive plan
/// (no rewriting beyond rule 1) for every workload query.
pub fn e6_optimizer_wins() -> Table {
    let mut t = Table::new(
        "E6 — §6.3: optimized vs naive plans (measured page accesses)",
        vec!["query", "naive", "optimized", "speedup"],
    );
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let source = LiveSource::for_site(&u.site);
    for (name, q) in university_workload() {
        let naive_session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&ExecPolicy {
                mask: RuleMask::none(),
                ..Default::default()
            });
        let naive = naive_session.run(&q).expect("naive").measured_pages();
        let session = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        let opt = session.run(&q).expect("optimized").measured_pages();
        t.row(vec![
            name.to_string(),
            naive.to_string(),
            opt.to_string(),
            format!("{:.1}×", naive as f64 / opt.max(1) as f64),
        ]);
    }
    t
}

/// E7 — the paper's plan figures, regenerated from our expressions.
pub fn e7_figures() -> String {
    let mut out = String::new();
    out.push_str("── Figure 2: plan for \"Name and Description of all Courses held by members\n");
    out.push_str("   of the Computer Science Department\" (Section 4) ──\n\n");
    out.push_str(&nalg::display::tree(&figure_2_plan()));
    out.push_str("\n── Figure 3: the two plans of Example 7.1 ──\n\n(1d) pointer join:\n");
    out.push_str(&nalg::display::tree(&example_71_plan_1d()));
    out.push_str("\n(2d) pointer chase:\n");
    out.push_str(&nalg::display::tree(&example_71_plan_2d()));
    out.push_str("\n── Figure 4: the two plans of Example 7.2 ──\n\n(1) pointer join:\n");
    out.push_str(&nalg::display::tree(&example_72_plan_1("Computer Science")));
    out.push_str("\n(2) pointer chase:\n");
    out.push_str(&nalg::display::tree(&example_72_plan_2("Computer Science")));
    out
}

/// E8 — rule ablation: estimated pages of the best plan per rule mask, for
/// the two paper queries.
pub fn e8_ablation() -> Table {
    let mut t = Table::new(
        "E8 — rule ablation (estimated pages of best plan)",
        vec!["mask", "example 7.1", "example 7.2", "CS professors"],
    );
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let queries = [query_71(), query_72(), query_cs_profs()];
    let masks: Vec<(&str, RuleMask)> = vec![
        ("full Algorithm 1", RuleMask::all()),
        ("no rule 9 (chase)", RuleMask::all().without_pointer_chase()),
        ("no rule 8 (join)", RuleMask::all().without_pointer_join()),
        (
            "no rules 8+9",
            RuleMask::all()
                .without_pointer_join()
                .without_pointer_chase(),
        ),
        (
            "no rule 6 (σ push)",
            RuleMask::all().without_selection_pushing(),
        ),
        ("no rules 3/5/7 (prune)", RuleMask::all().without_pruning()),
        ("nothing (rule 1 only)", RuleMask::none()),
    ];
    for (name, mask) in masks {
        let mut cells = vec![name.to_string()];
        for q in &queries {
            let opt = Optimizer::new(&u.site.scheme, &catalog, &stats).with_policy(&ExecPolicy {
                mask,
                ..Default::default()
            });
            match opt.optimize(q) {
                Ok(e) => cells.push(format!("{:.1}", e.best().estimate.cost.pages)),
                Err(_) => cells.push("—".to_string()),
            }
        }
        t.row(cells);
    }
    t
}

/// F1 — the web schemes (Figure 1 analogue) plus instance-level
/// verification of every declared constraint.
pub fn f1_schemes() -> String {
    let mut out = String::new();
    let u = University::generate(UniversityConfig::default()).expect("site");
    out.push_str("── Figure 1: the university web scheme ──\n\n");
    out.push_str(&u.site.scheme.describe());
    let violations = u.site.verify_constraints();
    out.push_str(&format!(
        "\nconstraint verification on the generated instance ({} pages): {} violation(s)\n",
        u.site.total_pages(),
        violations.len()
    ));
    let bib = Bibliography::generate(BibConfig::default()).expect("site");
    out.push_str("\n── the bibliography web scheme (Trier-repository analogue) ──\n\n");
    out.push_str(&bib.site.scheme.describe());
    let violations = bib.site.verify_constraints();
    out.push_str(&format!(
        "\nconstraint verification on the generated instance ({} pages): {} violation(s)\n",
        bib.site.total_pages(),
        violations.len()
    ));
    out
}

/// X2 (extension) — cross-query shared page cache: the E4 university
/// workload, twice, through one session holding a [`nalg::SharedPageCache`].
/// The first pass pays the cold downloads (minus intra-workload sharing);
/// the second pass answers every query from the shared cache — near-zero
/// server GETs — while the cost-model accounting stays byte-for-byte the
/// same (the paper's numbers are cache-blind).
pub fn x2_shared_cache() -> Table {
    let mut t = Table::new(
        "X2 — shared page cache: E4 university workload, two passes through one cache",
        vec![
            "pass",
            "server GETs",
            "downloads",
            "shared-cache hits",
            "cost-model pages",
        ],
    );
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let source = LiveSource::for_site(&u.site);
    let cache = nalg::SharedPageCache::default();
    let session =
        QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
            eval: EvalPolicy {
                shared_cache: Some(&cache),
                ..Default::default()
            },
            ..Default::default()
        });
    for pass in 1..=2u32 {
        u.site.server.reset_stats();
        let (mut downloads, mut hits, mut model) = (0u64, 0u64, 0u64);
        for (_, q) in university_workload() {
            let outcome = session.run(&q).expect("query runs");
            downloads += outcome.report.page_accesses;
            hits += outcome.report.shared_cache_hits;
            model += outcome.measured_pages();
        }
        t.row(vec![
            pass.to_string(),
            u.site.server.stats().gets.to_string(),
            downloads.to_string(),
            hits.to_string(),
            model.to_string(),
        ]);
    }
    t
}

/// X3 (extension) — chaos resilience: the full course navigation (session
/// list → sessions → courses, 54 pages) against a server injecting
/// transient faults at increasing per-attempt rates, evaluated through a
/// retrying [`nalg::ResilientSource`]. The
/// paper's accounting (`page accesses`, result rows, server GETs) must be
/// byte-identical at every transient rate — retries live in counters of
/// their own, never added to page accesses. A final row rots a quarter of
/// the course pages permanently and answers in
/// [`nalg::DegradationMode::Partial`], reporting the unreachable set.
pub fn x3_chaos(rates_pct: &[u8]) -> Table {
    use nalg::ResilientSource;
    let mut t = Table::new(
        "X3 — chaos resilience: course navigation under injected faults, retries counted separately",
        vec![
            "fault plan",
            "page accesses",
            "rows",
            "server GETs",
            "injected faults",
            "retries",
            "breaker trips",
            "unreachable",
        ],
    );
    let u = University::generate(UniversityConfig::default()).expect("site");
    let source = LiveSource::for_site(&u.site);
    let plan = nalg::NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Type"]);
    let mut run = |label: String, fault_plan: websim::FaultPlan| {
        u.site.server.set_fault_plan(fault_plan);
        u.site.server.reset_stats();
        let resilient = ResilientSource::new(&source, 4);
        let report = Evaluator::new(&u.site.scheme, &resilient)
            .with_policy(&EvalPolicy {
                degradation: nalg::DegradationMode::Partial,
                ..Default::default()
            })
            .eval(&plan)
            .expect("plan evaluates");
        let stats = u.site.server.stats();
        let faults = stats.faults.unavailable
            + stats.faults.timeout
            + stats.faults.link_rot
            + stats.faults.slow
            + stats.faults.truncated;
        let res = resilient.stats();
        t.row(vec![
            label,
            report.page_accesses.to_string(),
            report.relation.len().to_string(),
            stats.gets.to_string(),
            faults.to_string(),
            res.retries.to_string(),
            res.breaker_trips.to_string(),
            report.unreachable.len().to_string(),
        ]);
    };
    for &rate in rates_pct {
        let r = f64::from(rate) / 100.0;
        run(
            format!("transient {rate}%"),
            websim::FaultPlan::new(0xC4A05 + u64::from(rate))
                .with_rule(websim::FaultRule::unavailable(r).with_max_per_url(Some(2)))
                .with_rule(websim::FaultRule::timeouts(r).with_max_per_url(Some(1))),
        );
    }
    run(
        "link rot 25% (partial)".to_string(),
        websim::FaultPlan::new(0xC4A05)
            .with_rule(websim::FaultRule::link_rot(0.25).for_scheme("CoursePage")),
    );
    u.site.server.clear_fault_plan();
    t
}

/// Output of the EXPLAIN ANALYZE smoke run (see [`xa_explain_analyze`]).
pub struct ExplainSmoke {
    /// One summary row per workload query.
    pub table: Table,
    /// Each query's rendered per-operator report, under an `EXPLAIN
    /// ANALYZE: <query>` line.
    pub reports: String,
    /// The worst per-operator predicted/observed page-access ratio across
    /// the whole workload — the number the drift test bounds.
    pub worst_ratio: f64,
}

/// XA (extension) — EXPLAIN ANALYZE smoke: the fixed-seed university
/// workload through traced [`QuerySession::run`]s. For every query the
/// optimizer's per-operator estimates are joined onto the executed
/// operator spans ([`ExplainAnalyze::from_parts`]); the summary table reports predicted vs. observed
/// cost-model pages and the worst per-operator ratio. Because sites,
/// statistics, and traces are all seeded, the numbers are deterministic
/// — a test bounds [`ExplainSmoke::worst_ratio`] and fails when the cost
/// model and the evaluator drift apart.
pub fn xa_explain_analyze() -> ExplainSmoke {
    let u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let source = LiveSource::for_site(&u.site);
    let mut t = Table::new(
        "XA — EXPLAIN ANALYZE: predicted vs observed cost-model pages (fixed seed)",
        vec![
            "query",
            "predicted pages",
            "observed pages",
            "downloads",
            "worst op ratio",
        ],
    );
    let mut reports = Vec::new();
    let mut worst = 1.0f64;
    for (label, q) in university_workload() {
        let sink = TraceSink::new();
        let outcome = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&ExecPolicy {
                eval: EvalPolicy {
                    trace: Some((sink.clone(), None)),
                    ..Default::default()
                },
                ..Default::default()
            })
            .run(&q)
            .expect("query runs");
        let a = ExplainAnalyze::from_parts(&outcome.explain.best().estimate, &sink.events());
        let ratio = a.worst_pages_ratio();
        worst = worst.max(ratio);
        t.row(vec![
            label.to_string(),
            format!("{:.1}", a.predicted_pages),
            a.observed_pages.to_string(),
            outcome.downloads().to_string(),
            format!("{ratio:.2}"),
        ]);
        reports.push(format!("EXPLAIN ANALYZE: {label}\n{}", a.render()));
    }
    ExplainSmoke {
        table: t,
        reports: reports.join("\n"),
        worst_ratio: worst,
    }
}

/// Output of the X4 constraint-drift experiment (see [`x4_drift`]).
pub struct DriftSmoke {
    /// X4a — accuracy vs audit rate, fresh health registry per cell.
    pub accuracy: Table,
    /// X4b — pages vs fallback: full audit, one shared health registry,
    /// two passes (the second shows quarantine paying off).
    pub pages: Table,
    /// True when at least one constraint was quarantined.
    pub quarantine_fired: bool,
    /// True when every query that fell back produced exactly the
    /// default-navigation plan's answer.
    pub fallbacks_match_naive: bool,
}

/// X4 (extension) — constraint-drift defense: the optimizer's rewrites are
/// licensed by constraints a drifted site silently breaks. A university
/// site drifts under one fixed-seed [`websim::MutationPlan`] round at
/// `u64::MAX` (every `DeptPage.DName` perturbed, 35% of `CoursePage.CName`
/// perturbed, 10% of session course links dropped) while the optimizer keeps its pristine
/// statistics and scheme. X4a sweeps the audit rate and reports detection
/// (checks, violations, fallback) and accuracy against the
/// default-navigation ground truth; X4b runs three queries twice through
/// one [`wvcore::ConstraintHealth`] at full audit — pass 1 pays the
/// suspect-plus-fallback double execution, pass 2 shows the quarantine
/// already steering the optimizer to constraint-free plans.
pub fn x4_drift(drift_seed: u64) -> DriftSmoke {
    use websim::{MutationPlan, MutationRule};
    use wvcore::ConstraintHealth;
    const AUDIT_SEED: u64 = 0xA0D17;
    // Statistics (and the scheme's constraints) come from the pristine
    // site — the optimizer's knowledge predates the drift.
    let mut u = University::generate(UniversityConfig::default()).expect("site");
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    MutationPlan::new(drift_seed)
        .with_rule(MutationRule::edit_attr("DeptPage", "DName", 1.0))
        .with_rule(MutationRule::edit_attr("CoursePage", "CName", 0.35))
        .with_rule(MutationRule::drop_links(
            "SessionPage",
            &["CourseList", "ToCourse"],
            0.1,
        ))
        .apply_round(&mut u.site, u64::MAX)
        .expect("drift applies");
    let source = LiveSource::for_site(&u.site);

    let queries: Vec<(&str, ConjunctiveQuery)> = vec![
        (
            "cs-dept",
            ConjunctiveQuery::new("cs-dept")
                .atom("Dept")
                .select((0, "DName"), "Computer Science")
                .project((0, "Address")),
        ),
        ("example 7.1", query_71()),
        ("CS professors", query_cs_profs()),
    ];
    // Ground truth per query: the default navigation (rule mask off)
    // assumes no constraints, so it is correct on the drifted site by
    // definition of the view.
    let naives: Vec<wvcore::QueryOutcome> = queries
        .iter()
        .map(|(_, q)| {
            QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
                .with_policy(&ExecPolicy {
                    mask: RuleMask::none(),
                    ..Default::default()
                })
                .run(q)
                .expect("naive run")
        })
        .collect();
    let audit_numbers = |out: &wvcore::QueryOutcome| -> (u64, u64) {
        let audit = match &out.fallback {
            Some(f) => f.suspect_report.audit.as_ref(),
            None => out.report.audit.as_ref(),
        };
        audit.map_or((0, 0), |a| (a.checks(), a.violation_count()))
    };

    // X4a — accuracy vs audit rate.
    let mut accuracy = Table::new(
        "X4a — drift defense: accuracy vs audit rate (drifted site, fresh registry per cell)",
        vec![
            "query",
            "audit rate",
            "checks",
            "violations",
            "fell back",
            "rows",
            "correct",
            "downloads",
        ],
    );
    for ((label, q), naive) in queries.iter().zip(&naives) {
        let truth = naive.report.relation.sorted();
        for rate in [0.0, 0.25, 0.5, 1.0] {
            let health = ConstraintHealth::new();
            let out = QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
                .with_policy(&ExecPolicy {
                    audit: Some((rate, AUDIT_SEED)),
                    health: Some(&health),
                    ..Default::default()
                })
                .run(q)
                .expect("audited run");
            let (checks, violations) = audit_numbers(&out);
            let correct = out.report.relation.sorted() == truth;
            accuracy.row(vec![
                label.to_string(),
                format!("{rate:.2}"),
                checks.to_string(),
                violations.to_string(),
                if out.fell_back() { "yes" } else { "no" }.to_string(),
                out.report.relation.len().to_string(),
                if correct { "yes" } else { "no" }.to_string(),
                out.total_downloads().to_string(),
            ]);
        }
    }

    // X4b — pages vs fallback through one shared registry, two passes.
    let mut pages = Table::new(
        "X4b — drift defense: pages vs fallback (full audit, one shared registry, two passes)",
        vec![
            "pass",
            "query",
            "fell back",
            "quarantined now",
            "downloads",
            "naive pages",
            "rows",
            "== naive",
        ],
    );
    let health = ConstraintHealth::new();
    let mut fallbacks_match_naive = true;
    let session =
        QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
            audit: Some((1.0, AUDIT_SEED)),
            health: Some(&health),
            ..Default::default()
        });
    for pass in 1..=2u32 {
        for ((label, q), naive) in queries.iter().zip(&naives) {
            let out = session.run(q).expect("audited run");
            let matches = out.report.relation.sorted() == naive.report.relation.sorted();
            if out.fell_back() {
                fallbacks_match_naive &= matches;
            }
            pages.row(vec![
                pass.to_string(),
                label.to_string(),
                if out.fell_back() { "yes" } else { "no" }.to_string(),
                health.quarantined().len().to_string(),
                out.total_downloads().to_string(),
                naive.measured_pages().to_string(),
                out.report.relation.len().to_string(),
                if matches { "yes" } else { "no" }.to_string(),
            ]);
        }
    }

    DriftSmoke {
        accuracy,
        pages,
        quarantine_fired: health.snapshot().quarantines > 0,
        fallbacks_match_naive,
    }
}

/// Graphviz sources for Figure 1 (both schemes) and the Figure 3/4 plans
/// (`harness dot`; pipe into `dot -Tsvg`).
pub fn dot_figures() -> String {
    let mut out = String::new();
    out.push_str("// ── university scheme (Figure 1) ──\n");
    out.push_str(&adm::dot::scheme_to_dot(
        &websim::sitegen::university::university_scheme().expect("the Figure 1 scheme builds"),
    ));
    out.push_str("\n// ── bibliography scheme ──\n");
    out.push_str(&adm::dot::scheme_to_dot(
        &websim::sitegen::bibliography::bibliography_scheme().expect("the scheme builds"),
    ));
    out.push_str("\n// ── Example 7.2 plan (2), pointer chase ──\n");
    out.push_str(&nalg::display::dot(&example_72_plan_2("Computer Science")));
    out
}

/// The paper's Example 7.1 query.
pub fn query_71() -> ConjunctiveQuery {
    ConjunctiveQuery::new("example 7.1")
        .atom("Professor")
        .atom("CourseInstructor")
        .atom("Course")
        .join((0, "PName"), (1, "PName"))
        .join((1, "CName"), (2, "CName"))
        .select((0, "Rank"), "Full")
        .select((2, "Session"), "Fall")
        .project((2, "CName"))
        .project((2, "Description"))
}

/// The paper's Example 7.2 query.
pub fn query_72() -> ConjunctiveQuery {
    ConjunctiveQuery::new("example 7.2")
        .atom("Course")
        .atom("CourseInstructor")
        .atom("Professor")
        .atom("ProfDept")
        .join((0, "CName"), (1, "CName"))
        .join((1, "PName"), (2, "PName"))
        .join((2, "PName"), (3, "PName"))
        .select((3, "DName"), "Computer Science")
        .select((0, "Type"), "Graduate")
        .project((2, "PName"))
        .project((2, "Email"))
}

/// "Name and e-mail of professors in the CS department" (Section 4's
/// motivating query, via ProfDept).
pub fn query_cs_profs() -> ConjunctiveQuery {
    ConjunctiveQuery::new("CS professors")
        .atom("Professor")
        .atom("ProfDept")
        .join((0, "PName"), (1, "PName"))
        .select((1, "DName"), "Computer Science")
        .project((0, "PName"))
        .project((0, "Email"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_join_wins_example_71() {
        let t = e2_pointer_join(&[50]);
        let row = &t.rows[0];
        assert_eq!(row[4], "join");
    }

    #[test]
    fn e3_chase_wins_at_paper_parameters() {
        let t = e3_pointer_chase(&[3]);
        let row = &t.rows[0];
        assert_eq!(row[4], "chase");
    }

    #[test]
    fn e3_crossover_with_one_department() {
        let t = e3_pointer_chase(&[1, 3]);
        // with a single department the chase loses its selectivity edge
        assert_eq!(t.rows[0][4], "join");
        assert_eq!(t.rows[1][4], "chase");
    }

    #[test]
    fn e1_author_first_is_orders_of_magnitude_worse() {
        let t = e1_intro_strategies(&[200]);
        let row = &t.rows[0];
        let s3: u64 = row[3].split('/').next().unwrap().trim().parse().unwrap();
        let s4: u64 = row[4].split('/').next().unwrap().trim().parse().unwrap();
        assert!(s4 > 20 * s3, "S3 {s3} vs S4 {s4}");
    }

    #[test]
    fn x3_transient_chaos_keeps_paper_accounting_identical() {
        let t = x3_chaos(&[0, 30, 60]);
        assert_eq!(t.rows.len(), 4, "three transient rows + the rot row");
        // zero-fault row: nothing injected, nothing retried
        assert_eq!(t.rows[0][4], "0");
        assert_eq!(t.rows[0][5], "0");
        for i in 0..3 {
            // page accesses, result rows, and server GETs are identical at
            // every transient rate — the chaos shows up only in the fault
            // and retry columns
            assert_eq!(t.rows[i][1], t.rows[0][1], "page accesses, row {i}");
            assert_eq!(t.rows[i][2], t.rows[0][2], "result rows, row {i}");
            assert_eq!(t.rows[i][3], t.rows[0][3], "server GETs, row {i}");
            assert_eq!(t.rows[i][7], "0", "no transient fault loses a page");
            // every injected transient fault is exactly one retry
            assert_eq!(t.rows[i][4], t.rows[i][5], "faults == retries, row {i}");
        }
        assert_ne!(t.rows[2][4], "0", "the 60% plan actually fired");
    }

    #[test]
    fn x3_link_rot_reports_the_unreachable_remainder() {
        let t = x3_chaos(&[0]);
        let baseline_rows: u64 = t.rows[0][2].parse().unwrap();
        let rot = &t.rows[1];
        let rows: u64 = rot[2].parse().unwrap();
        let unreachable: u64 = rot[7].parse().unwrap();
        assert!(unreachable > 0, "a quarter of the courses rot");
        assert_eq!(rows + unreachable, baseline_rows, "subset + missing set");
        assert_eq!(rot[5], "0", "permanent absences are never retried");
    }

    #[test]
    fn x2_second_pass_is_all_cache_hits() {
        let t = x2_shared_cache();
        assert_eq!(t.rows.len(), 2);
        // pass 2: zero server GETs, zero downloads, cache serves everything
        assert_eq!(t.rows[1][1], "0", "warm pass must not GET");
        assert_eq!(t.rows[1][2], "0", "warm pass must not download");
        assert_ne!(t.rows[1][3], "0", "warm pass is served by the cache");
        // the paper's accounting is cache-blind: identical both passes
        assert_eq!(t.rows[0][4], t.rows[1][4]);
    }

    #[test]
    fn e5_structural_downloads_track_mutations() {
        let t = e5_structural();
        let downloads: Vec<u64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert_eq!(downloads[0], 0, "baseline");
        assert_eq!(downloads[1], 1, "description edit");
        assert_eq!(downloads[2], 2, "add course: session page + new page");
        assert_eq!(downloads[3], 1, "remove course: session page");
        assert_eq!(downloads[4], 0, "professor churn invisible to course query");
    }

    #[test]
    fn xa_worst_operator_ratio_stays_within_the_drift_bound() {
        // A golden alone could be blessed past the bound; this cannot.
        let worst = xa_explain_analyze().worst_ratio;
        assert!(
            worst <= 2.0,
            "worst per-operator page ratio {worst:.3} > 2.0"
        );
    }

    #[test]
    fn x4_quarantine_fires_and_fallback_matches_naive() {
        let smoke = x4_drift(3);
        assert!(smoke.quarantine_fired, "drift must trigger quarantine");
        assert!(
            smoke.fallbacks_match_naive,
            "every fallback answers exactly like the default navigation"
        );
        // cs-dept rows: without auditing the pushed selection trusts the
        // stale anchor and answers wrongly; at full audit the violation is
        // caught and the fallback corrects it.
        let cs: Vec<_> = smoke
            .accuracy
            .rows
            .iter()
            .filter(|r| r[0] == "cs-dept")
            .collect();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0][1], "0.00");
        assert_eq!(cs[0][6], "no", "unaudited run is wrong on a drifted site");
        let full = cs.last().unwrap();
        assert_eq!(full[1], "1.00");
        assert_eq!(full[4], "yes", "full audit falls back");
        assert_eq!(full[6], "yes", "fallback restores accuracy");
        // X4b pass 2: the quarantine steers the optimizer to constraint-free
        // plans, so nothing is left to audit-fail on the repeat pass.
        let pass2_cs = smoke
            .pages
            .rows
            .iter()
            .find(|r| r[0] == "2" && r[1] == "cs-dept")
            .expect("pass-2 row");
        assert_eq!(pass2_cs[2], "no", "no fallback needed after quarantine");
        assert_eq!(pass2_cs[7], "yes", "and the answer is the naive one");
    }

    #[test]
    fn x4_audit_on_pristine_site_changes_nothing() {
        // The zero-drift pin: full-rate auditing on an undrifted site never
        // falls back and leaves results and page accounting byte-identical.
        let u = University::generate(UniversityConfig::default()).expect("site");
        let stats = SiteStatistics::from_site(&u.site);
        let catalog = wvcore::views::university_catalog();
        let source = LiveSource::for_site(&u.site);
        let health = wvcore::ConstraintHealth::new();
        let audited =
            QuerySession::new(&u.site.scheme, &catalog, &stats, &source).with_policy(&ExecPolicy {
                audit: Some((1.0, 0xA0D17)),
                health: Some(&health),
                ..Default::default()
            });
        let plain = QuerySession::new(&u.site.scheme, &catalog, &stats, &source);
        for (label, q) in university_workload() {
            let a = audited.run(&q).expect("audited");
            let p = plain.run(&q).expect("plain");
            assert!(!a.fell_back(), "{label}");
            assert_eq!(a.report.relation, p.report.relation, "{label}");
            assert_eq!(a.report.page_accesses, p.report.page_accesses, "{label}");
            assert_eq!(a.measured_pages(), p.measured_pages(), "{label}");
        }
        assert!(health.snapshot().is_quiet());
    }

    #[test]
    fn e7_figures_render() {
        let f = e7_figures();
        assert!(f.contains("Figure 2"));
        assert!(f.contains("pointer chase"));
        assert!(f.contains("DeptListPage"));
    }

    #[test]
    fn f1_verifies_constraints() {
        let f = f1_schemes();
        assert!(f.contains("0 violation(s)"));
        assert!(!f.contains(" 1 violation(s)"));
    }
}
