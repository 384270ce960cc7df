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
//!   page delta touches exactly the rows that point at it. Slices are
//!   never evicted: the one partial state is the store's byte-budgeted
//!   page payloads, and a read of an evicted payload is an upquery.
//!
//! The delta rules are the only interpreter. A view is built by pushing
//! *rebuild* through a fresh tree (`Node::on_delta` with no page delta):
//! each entry emits its stored page as an insertion, and the rules above
//! turn that into the full answer from empty state.

use crate::delta::{add_row, PageDelta, RowDeltas, RowSet};
use crate::store::MatStore;
use crate::{MatError, Result};
use adm::name::resolve_name;
use adm::{Tuple, Url, Value, WebScheme};
use nalg::expr::field_of_column;
use nalg::{NalgExpr, PageServer, Pred};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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
        Pred::Eq(attr, v) => RPred::Eq(resolve_name(cols, attr)?, v.clone()),
        Pred::EqAttr(a, b) => RPred::EqAttr(resolve_name(cols, a)?, resolve_name(cols, b)?),
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
        /// Input rows keyed on the URL their link points at.
        slices: HashMap<Url, RowSet>,
    },
}

/// A compiled expression: the operator tree plus its output header.
#[derive(Debug)]
pub(crate) struct OpTree {
    pub root: Node,
    pub columns: Vec<String>,
}

/// Compiles a computable NALG expression into an operator tree.
pub(crate) fn compile(expr: &NalgExpr, ws: &WebScheme) -> Result<OpTree> {
    let columns = expr.output_columns(ws)?;
    let root = compile_node(expr, ws)?;
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

fn compile_node(expr: &NalgExpr, ws: &WebScheme) -> Result<Node> {
    let child = |e: &NalgExpr| compile_node(e, ws).map(Box::new);
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
                .map(|c| resolve_name(&in_cols, c).map_err(MatError::from))
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
                lk.push(resolve_name(&lcols, l)?);
                rk.push(resolve_name(&rcols, r)?);
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
            let ci = resolve_name(&in_cols, attr)?;
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
            let li = resolve_name(&input.output_columns(ws)?, link)?;
            let kind = Kind::Follow {
                li,
                target: target.clone(),
                fields: field_names(ws, target)?,
                slices: HashMap::new(),
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

    /// Propagates one input, updating state and returning output-row
    /// deltas. The input is a page delta, or `None` — *rebuild*: every
    /// entry reads its page from the store (a missing page is
    /// [`MatError::StateGone`]) and a follow skips its page-driven half.
    ///
    /// A rebuild expects a **fresh tree** (compiled, no input pushed yet):
    /// from that empty state the delta rules build the whole answer and
    /// every operator's state — the bilinear ⋈ joins each left row as its
    /// right side arrives, π counts from zero, each follow fills its
    /// slices and reads every target page once per input row.
    pub fn on_delta(
        &mut self,
        d: Option<&PageDelta>,
        cx: &mut Ctx<'_, impl PageServer>,
    ) -> Result<RowDeltas> {
        let out = match &mut self.kind {
            Kind::Entry { url, fields, last } => {
                let mut out = Vec::new();
                let new = match d {
                    Some(d) if d.url == *url => d.new.clone(),
                    Some(_) => return Ok(out),
                    None => match cx.read(url)? {
                        Some((t, _)) => Some(t),
                        None => return Err(MatError::StateGone(format!("entry page {url} gone"))),
                    },
                };
                if let Some(prev) = last.take() {
                    out.push((prev, -1));
                }
                if let Some(t) = new {
                    let row = expand(url, &t, fields);
                    *last = Some(row.clone());
                    out.push((row, 1));
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
                slices,
            } => {
                let mut out = Vec::new();
                // (b) page-driven: In_old ⋈ ΔP, from the slice as it was
                // before this delta's input rows are folded in
                if let Some(d) = d.filter(|d| d.scheme == *target) {
                    if let Some(slice) = slices.get(&d.url) {
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
                        for (row, w) in slice {
                            if let Some(ov) = &old_vals {
                                out.push((concat(row, ov), -w));
                            }
                            if let Some(nv) = &new_vals {
                                out.push((concat(row, nv), *w));
                            }
                        }
                    }
                }
                // (a) input-driven: ΔIn ⋈ P_new (the store already holds
                // the post-delta page)
                for (row, w) in input.on_delta(d, cx)? {
                    let Value::Link(u) = &row[*li] else {
                        continue;
                    };
                    let slice = slices.entry(u.clone()).or_default();
                    add_row(slice, row.clone(), w);
                    if slice.is_empty() {
                        slices.remove(u);
                    }
                    if let Some((t, _)) = cx.read(u)? {
                        out.push((concat(&row, &expand(u, &t, fields)), w));
                    }
                }
                out
            }
        };
        self.note(&out);
        Ok(out)
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
