//! Wall-clock benchmarks for the substrates: HTML wrapping and full-site
//! statistics crawling.

use criterion::{criterion_group, criterion_main, Criterion};
use websim::sitegen::{University, UniversityConfig};
use wvcore::{LiveSource, SiteStatistics};

fn bench_wrapper(c: &mut Criterion) {
    let u = University::generate(UniversityConfig::default()).unwrap();
    let prof_url = University::prof_url(0);
    let resp = u.site.server.get(&prof_url).unwrap();
    let html = std::str::from_utf8(&resp.body).unwrap().to_string();
    let scheme = u.site.scheme.scheme("ProfPage").unwrap().clone();
    // the longest list on the site: one row per professor of the department
    let dept_resp = u.site.server.get(&University::dept_url(0)).unwrap();
    let dept_html = std::str::from_utf8(&dept_resp.body).unwrap().to_string();
    let dept_scheme = u.site.scheme.scheme("DeptPage").unwrap().clone();
    u.site.server.reset_stats();

    let mut group = c.benchmark_group("substrates");
    group.bench_function("wrap_prof_page", |b| {
        b.iter(|| wrapper::wrap_page(&scheme, &html).unwrap().len())
    });
    group.bench_function("tokenize_prof_page", |b| {
        b.iter(|| wrapper::lexer::tokenize(&html).unwrap().len())
    });
    group.bench_function("parse_prof_page", |b| {
        b.iter(|| wrapper::Document::parse(&html).unwrap().len())
    });
    group.bench_function("wrap_dept_page", |b| {
        b.iter(|| wrapper::wrap_page(&dept_scheme, &dept_html).unwrap().len())
    });
    group.bench_function("parse_dept_page", |b| {
        b.iter(|| wrapper::Document::parse(&dept_html).unwrap().len())
    });
    group.sample_size(10);
    group.bench_function("crawl_statistics", |b| {
        let source = LiveSource::for_site(&u.site);
        b.iter(|| {
            SiteStatistics::crawl(&u.site.scheme, &source)
                .scheme_card
                .len()
        })
    });
    group.bench_function("generate_site", |b| {
        b.iter(|| {
            University::generate(UniversityConfig::default())
                .unwrap()
                .site
                .total_pages()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_wrapper);
criterion_main!(benches);
