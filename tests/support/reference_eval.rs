//! A from-the-definitions reference interpreter for NALG, kept out of the
//! product so tests can pin `nalg::Evaluator` against it.
//!
//! It is a plain recursion over [`NalgExpr`] on [`adm::Relation`]'s
//! row-at-a-time operators, fetching one page at a time on the calling
//! thread, and it counts accesses by the paper's rules and nothing else:
//!
//! * an `Entry` is charged 1 and a `Follow` the number of **distinct**
//!   non-null links of its input, in `accesses_by_operator`;
//! * each of those links is served by the per-query cache (`cache_hits`),
//!   else by the shared cache (`shared_cache_hits`), else downloaded
//!   (`page_accesses`);
//! * a 404 is a broken link, skipped in every mode; any other failure
//!   aborts the query unless evaluation is `Partial`, and every skipped URL
//!   is reported in `unreachable`.
//!
//! No pool, deadline, hedging, relevance pruning, tracing or auditing.

use std::collections::{BTreeSet, HashMap, HashSet};
use webviews::adm::{Relation, Tuple, Url, Value, WebScheme};
use webviews::nalg::expr::{field_of_column, page_columns};
use webviews::nalg::{
    DegradationMode, EvalError, NalgExpr, PageSource, Pred, SharedPageCache, SourceError,
};

type Result<T> = std::result::Result<T, EvalError>;

/// The reference interpreter's configuration: the two switches whose
/// effect on the counters the paper's rules define.
pub struct Reference<'a, S> {
    pub ws: &'a WebScheme,
    pub source: &'a S,
    pub shared: Option<&'a SharedPageCache>,
    pub degradation: DegradationMode,
}

/// What one reference evaluation observed, beside the answer: the
/// counters of `nalg::EvalReport` that the paper's rules define.
#[derive(Default)]
pub struct Counters {
    cache: HashMap<Url, Tuple>,
    pub page_accesses: u64,
    pub cache_hits: u64,
    pub shared_cache_hits: u64,
    pub broken_links: u64,
    pub accesses_by_operator: Vec<(String, u64)>,
    pub unreachable: BTreeSet<Url>,
}

impl<S: PageSource> Reference<'_, S> {
    pub fn eval(&self, expr: &NalgExpr) -> Result<(Relation, Counters)> {
        let mut c = Counters::default();
        let relation = self.eval_expr(expr, &mut c)?;
        Ok((relation, c))
    }

    /// One page by the cache → shared cache → network ladder; `None` when
    /// the page was skipped (and recorded as unreachable).
    fn fetch(&self, c: &mut Counters, url: &Url, scheme: &str) -> Result<Option<Tuple>> {
        if let Some(t) = c.cache.get(url) {
            c.cache_hits += 1;
            return Ok(Some(t.clone()));
        }
        let tuple = if let Some(t) = self.shared.and_then(|s| s.get(url)) {
            c.shared_cache_hits += 1;
            (*t).clone()
        } else {
            match self.source.fetch_stamped(url, scheme) {
                Ok((t, last_modified)) => {
                    c.page_accesses += 1;
                    if let Some(shared) = self.shared {
                        shared.insert(url, &std::sync::Arc::new(t.clone()), last_modified);
                    }
                    t
                }
                Err(e) => {
                    match e {
                        SourceError::NotFound(_) => c.broken_links += 1,
                        _ if self.degradation == DegradationMode::Partial => {}
                        e => return Err(EvalError::Source(e.to_string())),
                    }
                    c.unreachable.insert(url.clone());
                    return Ok(None);
                }
            }
        };
        c.cache.insert(url.clone(), tuple.clone());
        Ok(Some(tuple))
    }

    /// The row a page contributes to its page-relation (header:
    /// [`page_columns`]).
    fn page_row(&self, scheme: &str, url: &Url, tuple: &Tuple) -> Result<Vec<Value>> {
        let mut row = vec![Value::Link(url.clone())];
        for f in &self.ws.scheme(scheme)?.fields {
            row.push(tuple.get(&f.name).cloned().unwrap_or(Value::Null));
        }
        Ok(row)
    }

    fn eval_expr(&self, expr: &NalgExpr, c: &mut Counters) -> Result<Relation> {
        match expr {
            NalgExpr::External { name } => Err(EvalError::NotComputable(name.clone())),
            NalgExpr::Entry { scheme, alias } => {
                let url = &self
                    .ws
                    .entry_point(scheme)
                    .ok_or_else(|| EvalError::NotComputable(scheme.clone()))?
                    .url;
                let mut out = Relation::new(page_columns(self.ws, scheme, alias)?);
                match self.fetch(c, url, scheme)? {
                    Some(t) => out.push_row(self.page_row(scheme, url, &t)?)?,
                    None if self.degradation == DegradationMode::Partial => {}
                    None => return Err(EvalError::Source(format!("entry point {url} missing"))),
                }
                c.accesses_by_operator.push((format!("entry {scheme}"), 1));
                Ok(out)
            }
            NalgExpr::Select { input, pred } => Ok(select(&self.eval_expr(input, c)?, pred)?),
            NalgExpr::Project { input, cols } => {
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                Ok(self.eval_expr(input, c)?.project(&refs)?)
            }
            NalgExpr::Join { left, right, on } => {
                let (l, r) = (self.eval_expr(left, c)?, self.eval_expr(right, c)?);
                let on: Vec<(&str, &str)> =
                    on.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
                Ok(l.join(&r, &on)?)
            }
            NalgExpr::Unnest { input, attr } => {
                let rel = self.eval_expr(input, c)?;
                let qualified = &rel.columns()[rel.resolve(attr)?];
                let field = field_of_column(self.ws, &expr.alias_map()?, qualified)?;
                let inner: Vec<String> = field
                    .ty
                    .list_fields()
                    .ok_or_else(|| EvalError::NotComputable(format!("{qualified} is no list")))?
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
                Ok(rel.unnest(attr, &inner)?)
            }
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => {
                let rel = self.eval_expr(input, c)?;
                let li = rel.resolve(link)?;
                let links = || rel.rows().iter().map(|row| row[li].as_link());
                let mut seen = HashSet::new();
                let distinct: Vec<&Url> = links().flatten().filter(|u| seen.insert(*u)).collect();
                c.accesses_by_operator
                    .push((format!("–{link}→ {target}"), distinct.len() as u64));
                let mut pages: HashMap<&Url, Vec<Value>> = HashMap::new();
                for url in distinct {
                    if let Some(t) = self.fetch(c, url, target)? {
                        pages.insert(url, self.page_row(target, url, &t)?);
                    }
                }
                let mut columns = rel.columns().to_vec();
                columns.extend(page_columns(self.ws, target, alias)?);
                let mut out = Relation::new(columns);
                for (row, url) in rel.rows().iter().zip(links()) {
                    if let Some(page) = url.and_then(|u| pages.get(u)) {
                        out.push_row(row.iter().chain(page).cloned().collect())?;
                    }
                }
                Ok(out)
            }
        }
    }
}

/// σ by the definitions: constant equality is plain value equality (so
/// `Null = Null` holds), attribute equality never matches a null, and a
/// conjunction filters by each conjunct in turn.
fn select(rel: &Relation, pred: &Pred) -> webviews::adm::Result<Relation> {
    Ok(match pred {
        Pred::Eq(attr, value) => {
            let i = rel.resolve(attr)?;
            rel.select(|row| &row[i] == value)
        }
        Pred::EqAttr(a, b) => {
            let (i, j) = (rel.resolve(a)?, rel.resolve(b)?);
            rel.select(|row| !row[i].is_null() && row[i] == row[j])
        }
        Pred::And(ps) => {
            let mut cur = rel.clone();
            for p in ps {
                cur = select(&cur, p)?;
            }
            cur
        }
    })
}
