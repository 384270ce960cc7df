//! Property pins for deadline propagation and hedged fetches (ISSUE 10):
//! the robustness machinery must be a strict no-op on the paper's
//! numbers whenever it does not fire.
//!
//! Two pins on arbitrary seeded sites:
//!
//! 1. **Inert plumbing** — an evaluator carrying an *infinite* deadline
//!    and a live cancel token (but no hedging) is observationally
//!    identical to the plain evaluator: same rows, same rendered table,
//!    and the same value for every access counter. The budgeted drain
//!    only diverges from the pre-budget submit/recv loop when a finite
//!    deadline or a hedge config is present — this pin holds that door
//!    shut.
//!
//! 2. **Hedge invisibility** — with hedging enabled under latency-only
//!    chaos (seeded slowdowns that never change bytes), the answer and
//!    `page_accesses` still match the chaos-free plain run exactly:
//!    backup GETs are charged to the hedge counters, never to the
//!    paper's cost model, and whichever twin wins carries the same
//!    bytes.

use proptest::prelude::*;
use webviews::nalg::HedgeConfig;
use webviews::obs::{CancelToken, Deadline};
use webviews::prelude::*;

/// The same three plan shapes the columnar pin exercises: a pointer
/// chase, a pointer join, and a flat scan.
fn plans() -> Vec<(&'static str, NalgExpr)> {
    let chase = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .select(Pred::eq("DeptListPage.DeptList.DName", "Computer Science"))
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow("DeptPage.ProfList.ToProf", "ProfPage")
        .unnest("ProfPage.CourseList")
        .follow("ProfPage.CourseList.ToCourse", "CoursePage")
        .select(Pred::eq("CoursePage.Type", "Graduate"))
        .project(vec!["ProfPage.PName", "ProfPage.Email"]);
    let prof_side = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage")
        .select(Pred::eq("ProfPage.Rank", "Full"))
        .unnest("ProfPage.CourseList");
    let session_side = NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .select(Pred::eq("SessionListPage.SesList.Session", "Fall"))
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList");
    let join = session_side
        .join(
            prof_side,
            vec![(
                "SessionPage.CourseList.ToCourse",
                "ProfPage.CourseList.ToCourse",
            )],
        )
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Description"]);
    let scan = NalgExpr::entry("DeptListPage")
        .unnest("DeptList")
        .follow("ToDept", "DeptPage")
        .unnest("DeptPage.ProfList")
        .follow("DeptPage.ProfList.ToProf", "ProfPage")
        .project(vec!["ProfPage.PName", "ProfPage.Rank"]);
    vec![("chase", chase), ("join", join), ("scan", scan)]
}

/// Pin 1 body: plain vs infinite-deadline-plus-token, every counter.
fn assert_inert_budget_is_identity(
    site: &websim::Site,
    expr: &NalgExpr,
    label: &str,
    workers: usize,
) {
    let source = LiveSource::for_site(site);
    let plain = EvalPolicy {
        fetch: if workers > 1 {
            Fetch::pool(workers)
        } else {
            Fetch::Inline
        },
        ..Default::default()
    };
    let budgeted = EvalPolicy {
        deadline: Deadline::infinite(),
        cancel: Some(CancelToken::new()),
        ..plain.clone()
    };
    let eval = |policy| {
        Evaluator::new(&site.scheme, &source)
            .with_policy(policy)
            .eval(expr)
    };
    let plain = eval(&plain).expect("plain eval");
    let budgeted = eval(&budgeted).expect("budgeted eval");
    let ctx = format!("{label} (workers={workers})");
    assert_eq!(
        budgeted.relation.sorted(),
        plain.relation.sorted(),
        "{ctx}: rows diverged"
    );
    assert_eq!(
        budgeted.relation.to_table(),
        plain.relation.to_table(),
        "{ctx}: rendered tables diverged"
    );
    assert_eq!(
        budgeted.page_accesses, plain.page_accesses,
        "{ctx}: page_accesses"
    );
    assert_eq!(budgeted.cache_hits, plain.cache_hits, "{ctx}: cache_hits");
    assert_eq!(
        budgeted.broken_links, plain.broken_links,
        "{ctx}: broken_links"
    );
    assert_eq!(
        budgeted.accesses_by_operator, plain.accesses_by_operator,
        "{ctx}: accesses_by_operator"
    );
    assert_eq!(
        budgeted.unreachable, plain.unreachable,
        "{ctx}: unreachable"
    );
    assert!(!budgeted.deadline_exceeded, "{ctx}: phantom brown-out");
    assert!(budgeted.cancelled.is_empty(), "{ctx}: phantom cancellation");
    assert!(budgeted.is_complete(), "{ctx}: must be complete");
}

/// Pin 2 body: hedging under latency-only chaos vs the chaos-free plain
/// run — rows and the paper's counters must be untouched; only the
/// hedge counters may move.
fn assert_hedging_is_paper_blind(site: &websim::Site, expr: &NalgExpr, label: &str, seed: u64) {
    let source = LiveSource::for_site(site);
    let plain = Evaluator::new(&site.scheme, &source)
        .eval(expr)
        .expect("plain eval");
    site.server.set_latency_profile(websim::LatencyProfile {
        floor_us: 50,
        tail_us: 2_000,
        tail_rate: 0.25,
        seed,
    });
    let cfg = HedgeConfig::new(300);
    let hedged = Evaluator::new(&site.scheme, &source)
        .with_policy(&EvalPolicy {
            fetch: Fetch::hedged(3, cfg.clone()),
            ..Default::default()
        })
        .eval(expr)
        .expect("hedged eval");
    site.server.clear_latency_profile();
    let ctx = format!("{label} (seed={seed})");
    assert_eq!(
        hedged.relation.sorted(),
        plain.relation.sorted(),
        "{ctx}: hedging changed rows"
    );
    assert_eq!(
        hedged.page_accesses, plain.page_accesses,
        "{ctx}: a hedge twin was charged to page_accesses"
    );
    assert_eq!(
        hedged.accesses_by_operator, plain.accesses_by_operator,
        "{ctx}: per-operator accesses moved under hedging"
    );
    assert!(hedged.is_complete(), "{ctx}: slowdowns are not failures");
    assert!(
        hedged.unreachable.is_empty() && hedged.cancelled.is_empty(),
        "{ctx}: hedging must not mark pages missing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn inert_budget_plumbing_is_byte_identical(
        departments in 1usize..4,
        extra_profs in 0usize..8,
        courses in 2usize..16,
        seed in 0u64..10_000,
    ) {
        let u = University::generate(UniversityConfig {
            departments,
            professors: departments + extra_profs,
            courses,
            seed,
            ..UniversityConfig::default()
        }).unwrap();
        for (label, expr) in plans() {
            for workers in [1usize, 3] {
                assert_inert_budget_is_identity(&u.site, &expr, label, workers);
            }
        }
    }

    #[test]
    fn hedging_under_latency_chaos_never_changes_rows(
        departments in 1usize..4,
        courses in 2usize..12,
        seed in 0u64..10_000,
    ) {
        let u = University::generate(UniversityConfig {
            departments,
            professors: departments + 3,
            courses,
            seed,
            ..UniversityConfig::default()
        }).unwrap();
        for (label, expr) in plans() {
            assert_hedging_is_paper_blind(&u.site, &expr, label, seed);
        }
    }
}

/// The default-config site gets both pins deterministically, so a
/// divergence fails fast even under proptest-skipping test filters.
#[test]
fn deadline_pins_hold_on_default_site() {
    let u = University::generate(UniversityConfig::default()).unwrap();
    for (label, expr) in plans() {
        for workers in [1usize, 3] {
            assert_inert_budget_is_identity(&u.site, &expr, label, workers);
        }
        assert_hedging_is_paper_blind(&u.site, &expr, label, 7);
    }
}

/// A small site whose every GET the caller slows down.
fn slow_site() -> University {
    University::generate(UniversityConfig {
        departments: 2,
        professors: 6,
        courses: 8,
        seed: 3,
        ..UniversityConfig::default()
    })
    .unwrap()
}

/// A budget is honoured below the access boundary whoever runs the
/// evaluator: with every GET taking a simulated second, a 50 ms deadline
/// brings a query session and a bare evaluator back well inside that
/// second, inline and over a 2-worker pool, because the evaluation's own
/// deadline severs the simulated wait its fetch sits in — and the severed
/// GET answers `Cancelled`, not the page it gave up on.
#[test]
fn a_deadline_reaches_the_network_under_every_caller() {
    let u = slow_site();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();
    let source = LiveSource::for_site(&u.site);
    let q = parse_query("SELECT PName FROM Professor WHERE Rank = 'Full'", &catalog).unwrap();
    // Plan once, before the latency: the timed runs are plan-cache hits,
    // so their budget is spent on fetching alone.
    let plans = PlanCache::new(4);
    let session = |eval: EvalPolicy<'static>| {
        let policy = ExecPolicy {
            eval,
            ..Default::default()
        };
        QuerySession::new(&u.site.scheme, &catalog, &stats, &source)
            .with_policy(&policy)
            .with_plan_cache(&plans, 0)
    };
    session(EvalPolicy::default()).run(&q).unwrap();
    let nav = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage");
    let entry = &u.site.scheme.entry_point("ProfListPage").unwrap().url;
    u.site.server.set_latency(std::time::Duration::from_secs(1));
    for fetch in [Fetch::Inline, Fetch::pool(2)] {
        let budget = || EvalPolicy {
            fetch: fetch.clone(),
            deadline: Deadline::after_us(50_000),
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let outcome = session(budget()).run(&q).unwrap();
        let session_took = t0.elapsed();
        let t0 = std::time::Instant::now();
        let report = Evaluator::new(&u.site.scheme, &source)
            .with_policy(&budget())
            .eval(&nav)
            .unwrap();
        let evaluator_took = t0.elapsed();
        for (caller, took, report) in [
            ("session", session_took, &outcome.report),
            ("evaluator", evaluator_took, &report),
        ] {
            assert!(report.deadline_exceeded, "{caller} {fetch:?}");
            assert!(!report.is_complete(), "{caller} {fetch:?}");
            // the entry page's GET was abandoned: the server answered
            // `Cancelled`, so the page is unreachable and gives no row
            assert_eq!(
                report.unreachable,
                vec![entry.clone()],
                "{caller} {fetch:?}"
            );
            assert!(report.relation.is_empty(), "{caller} {fetch:?}");
            assert!(
                took < std::time::Duration::from_millis(500),
                "{caller} {fetch:?}: a 50 ms budget took {took:?}"
            );
        }
    }
    u.site.server.set_latency(std::time::Duration::ZERO);
}

/// A coalesced follower gives up at its own deadline: while an unbudgeted
/// leader sleeps out a simulated second on another thread, an evaluation
/// with a 50 ms budget that joins its fetch returns at its budget, its
/// wait ended as `Cancelled` (a `cancel_wake`) and its URL reported
/// unreachable — inline and from a pool worker.
#[test]
fn a_coalesced_follower_gives_up_at_its_own_deadline() {
    let u = slow_site();
    u.site.server.set_latency(std::time::Duration::from_secs(1));
    let live = LiveSource::for_site(&u.site);
    let coalesced = CoalescingSource::new(&live);
    let url = u
        .site
        .scheme
        .entry_point("ProfListPage")
        .unwrap()
        .url
        .clone();
    for (i, fetch) in [Fetch::Inline, Fetch::pool(2)].into_iter().enumerate() {
        std::thread::scope(|s| {
            let leader = s.spawn(|| coalesced.fetch(&url, "ProfListPage"));
            while coalesced.stats().leaders == i as u64 {
                std::thread::yield_now();
            }
            let t0 = std::time::Instant::now();
            let report = Evaluator::new(&u.site.scheme, &coalesced)
                .with_policy(&EvalPolicy {
                    fetch: fetch.clone(),
                    deadline: Deadline::after_us(50_000),
                    ..Default::default()
                })
                .eval(&NalgExpr::entry("ProfListPage"))
                .unwrap();
            let took = t0.elapsed();
            assert!(report.deadline_exceeded, "{fetch:?}");
            assert_eq!(report.unreachable, vec![url.clone()], "{fetch:?}");
            assert_eq!(report.page_accesses, 0, "{fetch:?}");
            assert!(
                took < std::time::Duration::from_millis(500),
                "{fetch:?}: the follower waited {took:?} on its leader"
            );
            assert_eq!(coalesced.stats().cancel_wakes, i as u64 + 1, "{fetch:?}");
            assert!(leader.join().unwrap().is_ok(), "the leader's GET completes");
        });
    }
}

/// One request's give-up never reaches another: while a leader whose
/// request gives up sits in a simulated GET — its 100 ms deadline fires,
/// or its cancel token drops the URL as a hedge loser's would — an
/// unbudgeted fail-fast evaluation coalesced behind it still gets the
/// page. The leader's abandoned GET answers it `Cancelled`, and the
/// follower, rather than inherit that, fetches the page itself (a
/// `relead`): two GETs reach the server, and the follower's answer is the
/// uncoalesced one.
#[test]
fn a_leader_that_gives_up_does_not_cancel_its_followers() {
    let u = slow_site();
    let live = LiveSource::for_site(&u.site);
    let entry = NalgExpr::entry("ProfListPage");
    let plain = Evaluator::new(&u.site.scheme, &live).eval(&entry).unwrap();
    let url = &u.site.scheme.entry_point("ProfListPage").unwrap().url;
    u.site
        .server
        .set_latency(std::time::Duration::from_millis(400));
    for by_deadline in [true, false] {
        let coalesced = CoalescingSource::new(&live);
        let token = CancelToken::new();
        let gets = u.site.server.stats().gets;
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                let policy = if by_deadline {
                    EvalPolicy {
                        deadline: Deadline::after_us(100_000),
                        ..Default::default()
                    }
                } else {
                    EvalPolicy {
                        cancel: Some(token.clone()),
                        ..Default::default()
                    }
                };
                Evaluator::new(&u.site.scheme, &coalesced)
                    .with_policy(&policy)
                    .eval(&entry)
            });
            while coalesced.stats().leaders == 0 {
                std::thread::yield_now();
            }
            let follower = s.spawn(|| Evaluator::new(&u.site.scheme, &coalesced).eval(&entry));
            while coalesced.stats().followers == 0 {
                std::thread::yield_now();
            }
            if !by_deadline {
                token.cancel_url(url.as_str());
            }
            let report = follower.join().unwrap().expect("the follower's query");
            assert_eq!(report.relation.sorted(), plain.relation.sorted());
            assert_eq!(report.page_accesses, 1);
            assert!(report.is_complete(), "by_deadline={by_deadline}");
            // The leader gave up: under its deadline the page is missing
            // from its answer; under its token the fail-fast query fails.
            match leader.join().unwrap() {
                Ok(r) => {
                    assert!(by_deadline && r.deadline_exceeded);
                    assert_eq!(r.unreachable, vec![url.clone()]);
                }
                Err(e) => assert!(!by_deadline, "{e}"),
            }
        });
        let st = coalesced.stats();
        assert_eq!(
            (st.leaders, st.followers, st.releads),
            (2, 1, 1),
            "by_deadline={by_deadline}"
        );
        assert_eq!(st.saved_gets(), 0, "a relead saves no GET");
        assert_eq!(u.site.server.stats().gets, gets + 2, "both GETs counted");
    }
    u.site.server.set_latency(std::time::Duration::ZERO);
}

/// Every hedge is accounted for against the server's own GET count when
/// the losing twin is cut off inside the server. Each professor page's
/// first GET is slow (300 ms) and its backup, launched after 20 ms, is
/// not: the backup wins and the primary, still in its simulated wait, is
/// severed by the winner's cancel and answers `Cancelled`. One page is
/// slow on both attempts (600 ms), so the drain is still open when the
/// severed primaries arrive. The server charged each of them, so they
/// are completed losers, not twins cancelled before dispatch.
#[test]
fn a_hedge_loser_cut_off_in_the_server_is_a_completed_loser() {
    let u = slow_site();
    let live = LiveSource::for_site(&u.site);
    let nav = NalgExpr::entry("ProfListPage")
        .unnest("ProfList")
        .follow("ToProf", "ProfPage");
    let plain = Evaluator::new(&u.site.scheme, &live).eval(&nav).unwrap();
    let profs: Vec<Url> = u
        .site
        .pages("ProfPage")
        .map(|(url, _)| url.clone())
        .collect();
    let laggard = (profs.iter())
        .find(|a| {
            !profs
                .iter()
                .any(|b| b != *a && b.as_str().starts_with(a.as_str()))
        })
        .unwrap();
    u.site.server.set_fault_plan(
        FaultPlan::new(1)
            .with_rule(
                FaultRule::slow(1.0, 600_000)
                    .for_url_prefix(laggard.as_str())
                    .with_max_per_url(Some(2)),
            )
            .with_rule(
                FaultRule::slow(1.0, 300_000)
                    .for_scheme("ProfPage")
                    .with_max_per_url(Some(1)),
            ),
    );
    let cfg = HedgeConfig::new(20_000);
    let gets = u.site.server.stats().gets;
    let report = Evaluator::new(&u.site.scheme, &live)
        .with_policy(&EvalPolicy {
            fetch: Fetch::hedged(2 * profs.len() + 1, cfg.clone()),
            ..Default::default()
        })
        .eval(&nav)
        .unwrap();
    u.site.server.clear_fault_plan();
    assert_eq!(report.relation.sorted(), plain.relation.sorted());
    assert_eq!(report.page_accesses, plain.page_accesses);
    let n = profs.len() as u64;
    let server_gets = u.site.server.stats().gets - gets;
    let completed_losers = server_gets - report.page_accesses;
    assert_eq!(cfg.hedges.get(), n, "one backup per professor page");
    assert_eq!(
        cfg.hedge_wins.get(),
        n - 1,
        "every backup but the laggard's wins"
    );
    assert_eq!(
        cfg.hedge_cancelled.get(),
        0,
        "every twin reached the server"
    );
    assert_eq!(completed_losers, n);
    assert_eq!(
        cfg.hedges.get(),
        cfg.hedge_cancelled.get() + completed_losers
    );
}
