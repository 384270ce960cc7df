//! Wall-clock benchmarks for E8: plan-enumeration cost of Algorithm 1
//! under different rule masks.

use bench::{query_71, query_72};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use websim::sitegen::{University, UniversityConfig};
use wvcore::{ExecPolicy, Optimizer, RuleMask, SiteStatistics};

fn bench_ablation(c: &mut Criterion) {
    let u = University::generate(UniversityConfig::default()).unwrap();
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = wvcore::views::university_catalog();
    let masks: Vec<(&str, RuleMask)> = vec![
        ("full", RuleMask::all()),
        (
            "no_join_rules",
            RuleMask::all()
                .without_pointer_join()
                .without_pointer_chase(),
        ),
        ("none", RuleMask::none()),
    ];
    let mut group = c.benchmark_group("optimizer_ablation");
    group.sample_size(10);
    for (name, mask) in masks {
        for (qname, q) in [("q71", query_71()), ("q72", query_72())] {
            group.bench_with_input(BenchmarkId::new(name, qname), &q, |b, q| {
                let opt =
                    Optimizer::new(&u.site.scheme, &catalog, &stats).with_policy(&ExecPolicy {
                        mask,
                        ..Default::default()
                    });
                b.iter(|| opt.optimize(q).unwrap().candidates.len())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
