//! Randomized equivalence: pipelined (pooled) evaluation must be
//! observationally identical to sequential evaluation — same relation,
//! same page-access accounting, same broken-link count — for arbitrary
//! sites (including duplicate and dangling links) and any worker count.
//! Completion order inside the pool is nondeterministic, so this pins the
//! out-of-order reassembly logic of the `Follow` pipeline.

use adm::{Field, PageScheme, Tuple, Url, Value, WebScheme};
use nalg::{EvalPolicy, Evaluator, Fetch, NalgExpr, PageSource, SharedPageCache, SourceError};
use proptest::prelude::*;
use std::collections::HashMap;

/// An in-memory page source over explicit tuples (thread-safe: reads only).
struct MapSource {
    pages: HashMap<Url, Tuple>,
}

impl PageSource for MapSource {
    fn fetch(&self, url: &Url, _scheme: &str) -> Result<Tuple, SourceError> {
        self.pages
            .get(url)
            .cloned()
            .ok_or_else(|| SourceError::NotFound(url.clone()))
    }
}

fn scheme() -> WebScheme {
    let list = PageScheme::new(
        "ListPage",
        vec![Field::list(
            "Items",
            vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
        )],
    )
    .unwrap();
    let item = PageScheme::new("ItemPage", vec![Field::text("Name"), Field::text("Kind")]).unwrap();
    WebScheme::builder()
        .scheme(list)
        .scheme(item)
        .entry_point("ListPage", "/list.html")
        .build()
        .unwrap()
}

/// One generated list entry: which kind its page has, whether the link
/// dangles (no page behind it), and whether the list references it twice
/// (duplicate links must still count as one distinct access).
type Item = (u8, bool, bool);

fn build_site(items: &[Item]) -> MapSource {
    let mut pages = HashMap::new();
    let mut rows = Vec::new();
    for (i, &(kind, broken, dup)) in items.iter().enumerate() {
        let url = format!("/i/{i}");
        let row = Tuple::new()
            .with("Name", format!("n{i}"))
            .with("ToItem", Value::link(url.as_str()));
        rows.push(row.clone());
        if dup {
            rows.push(row);
        }
        if !broken {
            pages.insert(
                Url::new(url),
                Tuple::new()
                    .with("Name", format!("n{i}"))
                    .with("Kind", format!("k{kind}")),
            );
        }
    }
    pages.insert(
        Url::new("/list.html"),
        Tuple::new().with_list("Items", rows),
    );
    MapSource { pages }
}

fn navigation() -> NalgExpr {
    NalgExpr::entry("ListPage")
        .unnest("Items")
        .follow("ToItem", "ItemPage")
        .project(vec!["ListPage.Items.Name", "ItemPage.Kind"])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pooled_eval_equals_sequential(
        items in proptest::collection::vec((0u8..4, any::<bool>(), any::<bool>()), 1..40),
        workers in 1usize..=16,
    ) {
        let ws = scheme();
        let src = build_site(&items);
        let plan = navigation();

        let seq = Evaluator::new(&ws, &src).eval(&plan).unwrap();
        let par = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                fetch: Fetch::pool(workers),
                ..Default::default()
            })
            .eval(&plan)
            .unwrap();

        prop_assert_eq!(par.relation.sorted(), seq.relation.sorted());
        prop_assert_eq!(par.page_accesses, seq.page_accesses);
        prop_assert_eq!(par.broken_links, seq.broken_links);
        prop_assert_eq!(par.cost_model_accesses(), seq.cost_model_accesses());
        prop_assert_eq!(&par.accesses_by_operator, &seq.accesses_by_operator);

        // And through a warm shared cache: same answer, zero downloads.
        let cache = SharedPageCache::default();
        let cold = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&cache),
                fetch: Fetch::pool(workers),
                ..Default::default()
            })
            .eval(&plan)
            .unwrap();
        prop_assert_eq!(cold.page_accesses, seq.page_accesses);
        let warm = Evaluator::new(&ws, &src)
            .with_policy(&EvalPolicy {
                shared_cache: Some(&cache),
                fetch: Fetch::pool(workers),
                ..Default::default()
            })
            .eval(&plan)
            .unwrap();
        prop_assert_eq!(warm.relation.sorted(), seq.relation.sorted());
        prop_assert_eq!(warm.page_accesses, 0);
        prop_assert_eq!(warm.cost_model_accesses(), seq.cost_model_accesses());
    }
}
