//! Wall-clock benchmarks for the concurrent fetch subsystem (X1/X2): the
//! full course navigation on the university site, swept over worker count
//! and simulated per-request latency, cold and with a warm shared cache.
//!
//! With zero latency the sweep measures pool overhead (it should be small
//! and flat); with 2 ms per request it measures latency hiding (wall-clock
//! should fall roughly linearly until the distinct-link width of the plan
//! is exhausted). The warm-cache rows skip the network entirely.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nalg::{EvalPolicy, Evaluator, Fetch, NalgExpr, SharedPageCache};
use std::time::Duration;
use websim::sitegen::{University, UniversityConfig};
use wvcore::LiveSource;

fn course_navigation() -> NalgExpr {
    NalgExpr::entry("SessionListPage")
        .unnest("SesList")
        .follow("ToSes", "SessionPage")
        .unnest("SessionPage.CourseList")
        .follow("SessionPage.CourseList.ToCourse", "CoursePage")
        .project(vec!["CoursePage.CName", "CoursePage.Type"])
}

/// One worker is the inline executor; more are a pool.
fn fetch_with(workers: usize) -> Fetch {
    if workers <= 1 {
        Fetch::Inline
    } else {
        Fetch::pool(workers)
    }
}

fn bench_concurrent_eval(c: &mut Criterion) {
    let u = University::generate(UniversityConfig::default()).unwrap();
    let source = LiveSource::for_site(&u.site);
    let plan = course_navigation();

    for latency_ms in [0u64, 2] {
        let mut group = c.benchmark_group(format!("concurrent_eval/latency_{latency_ms}ms"));
        group.sample_size(10);
        u.site.server.set_latency(Duration::from_millis(latency_ms));
        for workers in [1usize, 2, 4, 8, 16] {
            group.bench_with_input(BenchmarkId::new("cold", workers), &workers, |b, &w| {
                let policy = EvalPolicy {
                    fetch: fetch_with(w),
                    ..Default::default()
                };
                b.iter(|| {
                    Evaluator::new(&u.site.scheme, &source)
                        .with_policy(&policy)
                        .eval(&plan)
                        .unwrap()
                        .relation
                        .len()
                })
            });
            group.bench_with_input(
                BenchmarkId::new("warm_shared_cache", workers),
                &workers,
                |b, &w| {
                    let cache = SharedPageCache::default();
                    // warm it once; every timed iteration is then pure hits
                    Evaluator::new(&u.site.scheme, &source)
                        .with_policy(&EvalPolicy {
                            shared_cache: Some(&cache),
                            ..Default::default()
                        })
                        .eval(&plan)
                        .unwrap();
                    let policy = EvalPolicy {
                        fetch: fetch_with(w),
                        shared_cache: Some(&cache),
                        ..Default::default()
                    };
                    b.iter(|| {
                        Evaluator::new(&u.site.scheme, &source)
                            .with_policy(&policy)
                            .eval(&plan)
                            .unwrap()
                            .relation
                            .len()
                    })
                },
            );
        }
        u.site.server.set_latency(Duration::ZERO);
        group.finish();
    }
}

criterion_group!(benches, bench_concurrent_eval);
criterion_main!(benches);
