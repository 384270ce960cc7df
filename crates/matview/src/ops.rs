//! Compiled operator trees: one node per NALG operator, each holding just
//! enough state to turn page deltas into output-row deltas.
//!
//! * **entry** keeps its last expanded row (retraction needs no store);
//! * **σ** is stateless — deltas pass through the predicate;
//! * **π** keeps set-semantics counts and emits only 0↔positive
//!   transitions (projection dedups, so a duplicate insert is silent);
//! * **⋈** keeps keyed multisets of both inputs and applies the bilinear
//!   rule `Δ(L⋈R) = ΔL ⋈ R_old + L_new ⋈ ΔR` (null keys never join);
//! * **unnest** is stateless — each delta row fans out over its list;
//! * **follow** keeps a per-target-URL *slice* of its input multiset, so a
//!   page delta touches exactly the rows that point at it. Slices are the
//!   evictable per-operator partial state: under a byte budget the
//!   coldest slices are dropped, deltas aimed at a hole are discarded
//!   (Noria-style), and a page change that needs a missing slice triggers
//!   a targeted upquery — `prewarm` recomputes just that key's slice from
//!   the *pre-delta* store, keeping the bilinear rule exact.

use crate::delta::{add_row, row_bytes, PageDelta, RowDeltas, RowSet};
use crate::store::{Lru, MatStore};
use crate::{MatError, Result};
use adm::{Tuple, Url, Value, WebScheme};
use nalg::expr::{field_of_column, resolve_column};
use nalg::{NalgExpr, Pred};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use websim::PageServer;

/// What an operator works against besides its own state.
pub(crate) struct Ctx<'a, P> {
    pub store: &'a mut MatStore,
    pub ws: &'a WebScheme,
    /// Where upqueries go.
    pub server: &'a P,
    /// URLs changed in the current sync batch but not yet applied.
    pub dirty: &'a HashSet<Url>,
}

impl<P: PageServer> Ctx<'_, P> {
    /// A store read that refuses to fill a hole for a page that is
    /// *dirty*. An upquery would see the post-change server and corrupt
    /// the bilinear rule, so the only safe answer is "that state is gone,
    /// rebuild".
    fn read(&mut self, url: &Url) -> Result<Option<(Arc<Tuple>, String)>> {
        if self.dirty.contains(url) && self.store.knows(url) && self.store.get(url).is_none() {
            return Err(MatError::StateGone(format!(
                "{url} changed this sync and its old payload is evicted"
            )));
        }
        self.store.read(self.ws, self.server, url)
    }
}

/// A predicate with its columns resolved to indices at compile time.
#[derive(Debug, Clone)]
enum RPred {
    Eq(usize, Value),
    EqAttr(usize, usize),
    And(Vec<RPred>),
}

fn compile_pred(p: &Pred, cols: &[String]) -> Result<RPred> {
    Ok(match p {
        Pred::Eq(attr, v) => RPred::Eq(resolve_column(cols, attr)?, v.clone()),
        Pred::EqAttr(a, b) => RPred::EqAttr(resolve_column(cols, a)?, resolve_column(cols, b)?),
        Pred::And(ps) => RPred::And(
            ps.iter()
                .map(|p| compile_pred(p, cols))
                .collect::<Result<_>>()?,
        ),
    })
}

fn eval_pred(p: &RPred, row: &[Value]) -> bool {
    match p {
        RPred::Eq(i, v) => &row[*i] == v,
        RPred::EqAttr(i, j) => !row[*i].is_null() && row[*i] == row[*j],
        RPred::And(ps) => ps.iter().all(|p| eval_pred(p, row)),
    }
}

/// Expands a page into its row values: `URL` then one value per top-level
/// field — exactly the evaluator's `expand_page` shape.
fn expand(url: &Url, tuple: &Tuple, fields: &[String]) -> Vec<Value> {
    let mut vals = Vec::with_capacity(fields.len() + 1);
    vals.push(Value::Link(url.clone()));
    for f in fields {
        vals.push(tuple.get(f).cloned().unwrap_or(Value::Null));
    }
    vals
}

fn concat(row: &[Value], vals: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(row.len() + vals.len());
    out.extend_from_slice(row);
    out.extend_from_slice(vals);
    out
}

fn join_key(row: &[Value], idx: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(idx.len());
    for i in idx {
        if row[*i].is_null() {
            return None; // nulls never join
        }
        key.push(row[*i].clone());
    }
    Some(key)
}

/// The evictable per-key state of a follow operator.
#[derive(Debug, Default)]
struct SliceState {
    slices: HashMap<Url, RowSet>,
    evicted: HashSet<Url>,
    budget: Option<usize>,
    lru: Lru,
    evictions: u64,
    upqueries: u64,
}

impl SliceState {
    fn forget(&mut self, url: &Url) {
        self.slices.remove(url);
        self.lru.forget(url);
    }

    /// Folds one input row into the slice keyed on `url` (a new slice
    /// starts most-recently-used).
    fn fold(&mut self, url: &Url, row: Vec<Value>, w: i64) {
        if !self.slices.contains_key(url) {
            self.lru.touch(url);
        }
        add_row(self.slices.entry(url.clone()).or_default(), row, w);
    }

    /// Drops the slice keyed on `url`, leaving a hole for `prewarm`.
    fn evict(&mut self, url: Url) {
        self.forget(&url);
        self.evicted.insert(url);
        self.evictions += 1;
    }

    fn bytes(&self) -> usize {
        self.slices
            .iter()
            .map(|(u, s)| u.as_str().len() + s.keys().map(|r| row_bytes(r)).sum::<usize>())
            .sum()
    }

    fn evict_to_budget(&mut self) {
        let Some(budget) = self.budget else {
            return;
        };
        while self.bytes() > budget && self.slices.len() > 1 {
            let Some(url) = self.lru.coldest().cloned() else {
                break;
            };
            self.evict(url);
        }
    }
}

/// One compiled operator.
#[derive(Debug)]
pub(crate) struct Node {
    /// Display label (trace events).
    pub label: String,
    /// Rows inserted downstream this sync.
    pub adds: u64,
    /// Rows retracted downstream this sync.
    pub removes: u64,
    kind: Kind,
}

#[derive(Debug)]
enum Kind {
    Entry {
        url: Url,
        fields: Vec<String>,
        last: Option<Vec<Value>>,
    },
    Select {
        input: Box<Node>,
        pred: RPred,
    },
    Project {
        input: Box<Node>,
        idx: Vec<usize>,
        counts: RowSet,
    },
    Unnest {
        input: Box<Node>,
        ci: usize,
        inner: Vec<String>,
    },
    Join {
        left: Box<Node>,
        right: Box<Node>,
        lk: Vec<usize>,
        rk: Vec<usize>,
        lstate: HashMap<Vec<Value>, RowSet>,
        rstate: HashMap<Vec<Value>, RowSet>,
    },
    Follow {
        input: Box<Node>,
        li: usize,
        target: String,
        fields: Vec<String>,
        state: SliceState,
    },
}

/// A compiled expression: the operator tree plus its output header.
#[derive(Debug)]
pub(crate) struct OpTree {
    pub root: Node,
    pub columns: Vec<String>,
}

/// Compiles a computable NALG expression into an operator tree.
/// `slice_budget` bounds each follow operator's slice bytes (None =
/// unbounded).
pub(crate) fn compile(
    expr: &NalgExpr,
    ws: &WebScheme,
    slice_budget: Option<usize>,
) -> Result<OpTree> {
    let columns = expr.output_columns(ws)?;
    let root = compile_node(expr, ws, slice_budget)?;
    Ok(OpTree { root, columns })
}

fn field_names(ws: &WebScheme, scheme: &str) -> Result<Vec<String>> {
    Ok(ws
        .scheme(scheme)?
        .fields
        .iter()
        .map(|f| f.name.clone())
        .collect())
}

fn compile_node(expr: &NalgExpr, ws: &WebScheme, slice_budget: Option<usize>) -> Result<Node> {
    let child = |e: &NalgExpr| compile_node(e, ws, slice_budget).map(Box::new);
    let (label, kind) = match expr {
        NalgExpr::Entry { scheme, alias: _ } => {
            let ep = ws.entry_point(scheme).ok_or_else(|| {
                MatError::NotMaintainable(format!("{scheme} is not an entry point"))
            })?;
            let kind = Kind::Entry {
                url: ep.url.clone(),
                fields: field_names(ws, scheme)?,
                last: None,
            };
            (format!("entry {scheme}"), kind)
        }
        NalgExpr::External { name } => {
            return Err(MatError::NotMaintainable(format!(
                "external relation {name}: run the optimizer first (rule 1)"
            )))
        }
        NalgExpr::Select { input, pred } => {
            let pred = compile_pred(pred, &input.output_columns(ws)?)?;
            let kind = Kind::Select {
                pred,
                input: child(input)?,
            };
            ("σ".to_string(), kind)
        }
        NalgExpr::Project { input, cols } => {
            let in_cols = input.output_columns(ws)?;
            let idx = cols
                .iter()
                .map(|c| resolve_column(&in_cols, c).map_err(MatError::from))
                .collect::<Result<Vec<_>>>()?;
            let kind = Kind::Project {
                idx,
                counts: RowSet::new(),
                input: child(input)?,
            };
            (format!("π[{}]", cols.join(",")), kind)
        }
        NalgExpr::Join { left, right, on } => {
            let lcols = left.output_columns(ws)?;
            let rcols = right.output_columns(ws)?;
            let mut lk = Vec::new();
            let mut rk = Vec::new();
            for (l, r) in on {
                lk.push(resolve_column(&lcols, l)?);
                rk.push(resolve_column(&rcols, r)?);
            }
            let kind = Kind::Join {
                left: child(left)?,
                right: child(right)?,
                lk,
                rk,
                lstate: HashMap::new(),
                rstate: HashMap::new(),
            };
            ("⋈".to_string(), kind)
        }
        NalgExpr::Unnest { input, attr } => {
            let in_cols = input.output_columns(ws)?;
            let ci = resolve_column(&in_cols, attr)?;
            let qualified = in_cols[ci].clone();
            let field = field_of_column(ws, &expr.alias_map()?, &qualified)?;
            let inner: Vec<String> = field
                .ty
                .list_fields()
                .ok_or_else(|| {
                    MatError::NotMaintainable(format!("unnest over non-list {qualified}"))
                })?
                .iter()
                .map(|f| f.name.clone())
                .collect();
            let kind = Kind::Unnest {
                ci,
                inner,
                input: child(input)?,
            };
            (format!("∘ {attr}"), kind)
        }
        NalgExpr::Follow {
            input,
            link,
            target,
            alias: _,
        } => {
            let li = resolve_column(&input.output_columns(ws)?, link)?;
            let kind = Kind::Follow {
                li,
                target: target.clone(),
                fields: field_names(ws, target)?,
                state: SliceState {
                    budget: slice_budget,
                    ..SliceState::default()
                },
                input: child(input)?,
            };
            (format!("–{link}→ {target}"), kind)
        }
    };
    Ok(Node {
        label,
        adds: 0,
        removes: 0,
        kind,
    })
}

/// Projects `rows` through `idx` into the set-semantics `counts`,
/// returning only the 0↔positive transitions.
fn project(counts: &mut RowSet, idx: &[usize], rows: RowDeltas) -> RowDeltas {
    let mut out = Vec::new();
    for (row, w) in rows {
        let p: Vec<Value> = idx.iter().map(|i| row[*i].clone()).collect();
        let before = counts.get(&p).copied().unwrap_or(0);
        add_row(counts, p.clone(), w);
        let after = counts.get(&p).copied().unwrap_or(0);
        if before <= 0 && after > 0 {
            out.push((p, 1));
        } else if before > 0 && after <= 0 {
            out.push((p, -1));
        }
    }
    out
}

/// Folds `rows` into a join side's keyed state (null keys never join).
fn fold_keyed(state: &mut HashMap<Vec<Value>, RowSet>, keys: &[usize], rows: RowDeltas) {
    for (row, w) in rows {
        if let Some(k) = join_key(&row, keys) {
            add_row(state.entry(k).or_default(), row, w);
        }
    }
}

impl Node {
    fn note(&mut self, out: &RowDeltas) {
        for (_, w) in out {
            if *w > 0 {
                self.adds += *w as u64;
            } else {
                self.removes += (-*w) as u64;
            }
        }
    }

    /// The operator's inputs, left to right.
    fn inputs(&self) -> Vec<&Node> {
        match &self.kind {
            Kind::Entry { .. } => Vec::new(),
            Kind::Select { input, .. }
            | Kind::Project { input, .. }
            | Kind::Unnest { input, .. }
            | Kind::Follow { input, .. } => vec![input],
            Kind::Join { left, right, .. } => vec![left, right],
        }
    }

    fn inputs_mut(&mut self) -> Vec<&mut Node> {
        match &mut self.kind {
            Kind::Entry { .. } => Vec::new(),
            Kind::Select { input, .. }
            | Kind::Project { input, .. }
            | Kind::Unnest { input, .. }
            | Kind::Follow { input, .. } => vec![input],
            Kind::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Resets the per-sync delta counters, recursively.
    pub fn reset_counters(&mut self) {
        self.adds = 0;
        self.removes = 0;
        for input in self.inputs_mut() {
            input.reset_counters();
        }
    }

    /// Visits every node pre-order with (label, adds, removes).
    pub fn visit_counters(&self, f: &mut impl FnMut(&str, u64, u64)) {
        f(&self.label, self.adds, self.removes);
        for input in self.inputs() {
            input.visit_counters(f);
        }
    }

    /// Upqueries this sync will need: restores any evicted follow slice
    /// keyed on `url` *before* the page delta lands in the store, so the
    /// slice reflects the pre-delta input (the bilinear `In_old ⋈ ΔP`
    /// term stays exact).
    pub fn prewarm(
        &mut self,
        url: &Url,
        scheme: &str,
        cx: &mut Ctx<'_, impl PageServer>,
    ) -> Result<()> {
        for input in self.inputs_mut() {
            input.prewarm(url, scheme, cx)?;
        }
        if let Kind::Follow {
            input,
            li,
            target,
            state,
            ..
        } = &mut self.kind
        {
            if target == scheme && state.evicted.contains(url) {
                // targeted upquery: recompute just this key's slice
                let mut slice = RowSet::new();
                for (row, w) in input.eval(cx, false)? {
                    if matches!(&row[*li], Value::Link(u) if u == url) {
                        add_row(&mut slice, row, w);
                    }
                }
                state.evicted.remove(url);
                state.slices.insert(url.clone(), slice);
                state.lru.touch(url);
                state.upqueries += 1;
            }
        }
        Ok(())
    }

    /// Full evaluation against the current store (reads may upquery
    /// evicted pages), returning the row multiset. With `populate` it also
    /// (re)builds every operator's state from those rows — a registration
    /// or rebuild; without, state is left alone — a slice upquery.
    pub fn eval(&mut self, cx: &mut Ctx<'_, impl PageServer>, populate: bool) -> Result<RowDeltas> {
        let out = match &mut self.kind {
            Kind::Entry { url, fields, last } => match cx.read(url)? {
                Some((t, _)) => {
                    let row = expand(url, &t, fields);
                    if populate {
                        *last = Some(row.clone());
                    }
                    vec![(row, 1)]
                }
                None => return Err(MatError::StateGone(format!("entry page {url} gone"))),
            },
            Kind::Select { input, pred } => input
                .eval(cx, populate)?
                .into_iter()
                .filter(|(r, _)| eval_pred(pred, r))
                .collect(),
            Kind::Project { input, idx, counts } => {
                let rows = input.eval(cx, populate)?;
                if populate {
                    counts.clear();
                    project(counts, idx, rows)
                } else {
                    project(&mut RowSet::new(), idx, rows)
                }
            }
            Kind::Unnest { input, ci, inner } => {
                let mut out = Vec::new();
                for (row, w) in input.eval(cx, populate)? {
                    unnest_row(&row, *ci, inner, w, &mut out)?;
                }
                out
            }
            Kind::Join {
                left,
                right,
                lk,
                rk,
                lstate,
                rstate,
            } => {
                let (mut l, mut r) = (HashMap::new(), HashMap::new());
                fold_keyed(&mut l, lk, left.eval(cx, populate)?);
                fold_keyed(&mut r, rk, right.eval(cx, populate)?);
                let mut out = Vec::new();
                for (k, ls) in &l {
                    for (rrow, rw) in r.get(k).into_iter().flatten() {
                        for (lrow, lw) in ls {
                            out.push((concat(lrow, rrow), lw * rw));
                        }
                    }
                }
                if populate {
                    (*lstate, *rstate) = (l, r);
                }
                out
            }
            Kind::Follow {
                input,
                li,
                fields,
                state,
                ..
            } => {
                let rows = input.eval(cx, populate)?;
                if populate {
                    state.slices.clear();
                    state.evicted.clear();
                    state.lru.clear();
                }
                let mut out = Vec::new();
                for (row, w) in rows {
                    let Value::Link(u) = &row[*li] else {
                        continue;
                    };
                    let u = u.clone();
                    if populate {
                        state.fold(&u, row.clone(), w);
                    }
                    if let Some((t, _)) = cx.read(&u)? {
                        out.push((concat(&row, &expand(&u, &t, fields)), w));
                    }
                }
                if populate {
                    state.evict_to_budget();
                }
                out
            }
        };
        if populate {
            self.note(&out);
        }
        Ok(out)
    }

    /// Propagates one page delta, updating state and returning output-row
    /// deltas.
    pub fn on_delta(
        &mut self,
        d: &PageDelta,
        cx: &mut Ctx<'_, impl PageServer>,
    ) -> Result<RowDeltas> {
        let out = match &mut self.kind {
            Kind::Entry { url, fields, last } => {
                let mut out = Vec::new();
                if d.url == *url {
                    if let Some(prev) = last.take() {
                        out.push((prev, -1));
                    }
                    if let Some(t) = &d.new {
                        let row = expand(url, t, fields);
                        *last = Some(row.clone());
                        out.push((row, 1));
                    }
                }
                out
            }
            Kind::Select { input, pred } => input
                .on_delta(d, cx)?
                .into_iter()
                .filter(|(r, _)| eval_pred(pred, r))
                .collect(),
            Kind::Project { input, idx, counts } => project(counts, idx, input.on_delta(d, cx)?),
            Kind::Unnest { input, ci, inner } => {
                let mut out = Vec::new();
                for (row, w) in input.on_delta(d, cx)? {
                    unnest_row(&row, *ci, inner, w, &mut out)?;
                }
                out
            }
            Kind::Join {
                left,
                right,
                lk,
                rk,
                lstate,
                rstate,
            } => {
                let dl = left.on_delta(d, cx)?;
                let dr = right.on_delta(d, cx)?;
                let mut out = Vec::new();
                // ΔL ⋈ R_old
                for (lrow, lw) in &dl {
                    if let Some(rs) = join_key(lrow, lk).and_then(|k| rstate.get(&k)) {
                        for (rrow, rw) in rs {
                            out.push((concat(lrow, rrow), lw * rw));
                        }
                    }
                }
                fold_keyed(lstate, lk, dl);
                // L_new ⋈ ΔR
                for (rrow, rw) in &dr {
                    if let Some(ls) = join_key(rrow, rk).and_then(|k| lstate.get(&k)) {
                        for (lrow, lw) in ls {
                            out.push((concat(lrow, rrow), lw * rw));
                        }
                    }
                }
                fold_keyed(rstate, rk, dr);
                out
            }
            Kind::Follow {
                input,
                li,
                target,
                fields,
                state,
            } => {
                let mut out = Vec::new();
                // (b) page-driven: In_old ⋈ ΔP, from the slice as it was
                // before this delta's input rows are folded in
                if d.scheme == *target {
                    let slice_rows: Vec<(Vec<Value>, i64)> = match state.slices.get(&d.url) {
                        Some(s) => s.iter().map(|(r, w)| (r.clone(), *w)).collect(),
                        None if state.evicted.contains(&d.url) => {
                            return Err(MatError::StateGone(format!(
                                "follow slice for {} evicted and not prewarmed",
                                d.url
                            )))
                        }
                        None => Vec::new(),
                    };
                    if !slice_rows.is_empty() {
                        let old_vals = match &d.old {
                            Some(t) => Some(expand(&d.url, t, fields)),
                            None if d.was_known => {
                                return Err(MatError::StateGone(format!(
                                    "old payload of {} evicted before its change",
                                    d.url
                                )))
                            }
                            None => None,
                        };
                        let new_vals = d.new.as_ref().map(|t| expand(&d.url, t, fields));
                        for (row, w) in &slice_rows {
                            if let Some(ov) = &old_vals {
                                out.push((concat(row, ov), -w));
                            }
                            if let Some(nv) = &new_vals {
                                out.push((concat(row, nv), *w));
                            }
                        }
                        state.lru.touch(&d.url);
                    }
                }
                // (a) input-driven: ΔIn ⋈ P_new (the store already holds
                // the post-delta page)
                for (row, w) in input.on_delta(d, cx)? {
                    let Value::Link(u) = &row[*li] else {
                        continue;
                    };
                    let u = u.clone();
                    if !state.evicted.contains(&u) {
                        // fold into the slice; deltas aimed at an evicted
                        // hole are discarded (the upquery recomputes)
                        state.fold(&u, row.clone(), w);
                        if state.slices.get(&u).is_some_and(|s| s.is_empty()) {
                            state.forget(&u);
                        }
                    }
                    if let Some((t, _)) = cx.read(&u)? {
                        out.push((concat(&row, &expand(&u, &t, fields)), w));
                    }
                }
                state.evict_to_budget();
                out
            }
        };
        self.note(&out);
        Ok(out)
    }

    /// (slice evictions, slice upqueries) accumulated across all follow
    /// operators in this subtree.
    pub fn slice_stats(&self) -> (u64, u64) {
        let (mut evictions, mut upqueries) = match &self.kind {
            Kind::Follow { state, .. } => (state.evictions, state.upqueries),
            _ => (0, 0),
        };
        for input in self.inputs() {
            let (e, u) = input.slice_stats();
            evictions += e;
            upqueries += u;
        }
        (evictions, upqueries)
    }

    /// Force-evicts the follow slices keyed on `url` (tests/experiments).
    pub fn evict_slice(&mut self, url: &Url) -> bool {
        let mut hit = false;
        for input in self.inputs_mut() {
            hit |= input.evict_slice(url);
        }
        if let Kind::Follow { state, .. } = &mut self.kind {
            if state.slices.contains_key(url) {
                state.evict(url.clone());
                hit = true;
            }
        }
        hit
    }
}

fn unnest_row(
    row: &[Value],
    ci: usize,
    inner: &[String],
    w: i64,
    out: &mut RowDeltas,
) -> Result<()> {
    match &row[ci] {
        Value::Null => Ok(()), // null list ≡ empty list
        Value::List(ts) => {
            for t in ts {
                let mut r = Vec::with_capacity(row.len() - 1 + inner.len());
                for (i, v) in row.iter().enumerate() {
                    if i != ci {
                        r.push(v.clone());
                    }
                }
                for f in inner {
                    r.push(t.get(f).cloned().unwrap_or(Value::Null));
                }
                out.push((r, w));
            }
            Ok(())
        }
        other => Err(MatError::NotMaintainable(format!(
            "unnest over non-list value {other:?}"
        ))),
    }
}
