//! The optimizer's working representation: a hash-consed plan arena.
//!
//! [`NalgExpr`] is the interchange type — catalogs hold it, the evaluator
//! runs it, `Explain` shows it — but it is a poor thing to *search* over:
//! a `Box` tree with `String` attributes makes every rewrite a deep clone,
//! every comparison a tree walk, and every analysis (`output_columns`,
//! `alias_map`, validation, costing) a recomputation from the leaves. One
//! `optimize` therefore imports its plans into a [`PlanArena`], rewrites
//! there, and exports only the surviving candidates.
//!
//! * **Nodes** are small records whose children are [`NodeId`]s and whose
//!   attribute, alias and scheme names are interned [`Symbol`]s. A column
//!   reference is a `Col`: `(alias, rest-of-path)`, so renaming an alias
//!   is a field swap, not string surgery.
//! * **Hash-consing**: `PlanArena::mk` returns the existing id of a
//!   structurally equal node, so plan equality — the closure's `seen` set,
//!   "did this rule change anything" — is an id comparison, and a rewrite
//!   rebuilds only the spine above the node it changed.
//! * **Memo tables**, one entry per distinct subtree, filled when the node
//!   is made: its qualified output header, its alias → scheme map, the
//!   references it mentions, and whether it is computable and statically
//!   valid. The cost estimate is memoised per subtree too, on first demand
//!   (see [`crate::cost`]).
//!
//! Two invariants:
//!
//! 1. **Ids and symbols are for equality only.** Neither a [`NodeId`] nor a
//!    [`Symbol`] ever orders candidates, dependencies or output; every
//!    visible order comes from a `Vec` the algorithm filled, or from the
//!    strings themselves.
//! 2. **Constants are never interned.** Selection constants are unbounded
//!    user input and stay [`Value`]s inside the predicate; only the bounded
//!    vocabulary of a catalog (scheme, alias and attribute names) becomes
//!    symbols.
//!
//! An arena lives for one `optimize` call and is dropped with it.

use crate::cost::EstimateMemo;
use crate::stats::SiteStatistics;
use crate::{OptError, Result};
use adm::intern::Symbol;
use adm::name::{binding, position, Binding};
use adm::{Field, PageScheme, Value, WebScheme};
use nalg::{NalgExpr, Pred};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A plan (sub)tree in a [`PlanArena`]. Two ids from one arena are equal
/// exactly when the trees are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A column reference, split at its first dot: `ProfPage_1.CourseList.CName`
/// is `(ProfPage_1, CourseList.CName)`; an unqualified `ToProf` is
/// `(ToProf, None)`. Equal columns are equal strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Col {
    pub alias: Symbol,
    pub rest: Option<Symbol>,
}

impl Col {
    pub fn parse(s: &str) -> Col {
        match s.split_once('.') {
            Some((alias, rest)) => Col {
                alias: Symbol::intern(alias),
                rest: Some(Symbol::intern(rest)),
            },
            None => Col {
                alias: Symbol::intern(s),
                rest: None,
            },
        }
    }

    /// The same path under another alias.
    pub fn with_alias(self, alias: Symbol) -> Col {
        Col { alias, ..self }
    }

    /// `self.starts_with("{alias}.")` on the strings.
    pub fn is_under_alias(self, alias: Symbol) -> bool {
        self.alias == alias && self.rest.is_some()
    }

    /// The last dotted segment.
    pub fn leaf(self) -> &'static str {
        match self.rest {
            Some(r) => {
                let r = r.as_str();
                r.rsplit('.').next().unwrap_or(r)
            }
            None => self.alias.as_str(),
        }
    }

    /// `self.ends_with(".URL")` on the strings.
    pub fn is_url(self) -> bool {
        self.rest
            .is_some_and(|r| binding(&[r.as_str()], &["URL"]).is_some())
    }

    /// How the reference `name`, whose dotted parts are `parts`, binds this
    /// column by [`adm::name`]'s rule. Equal columns are equal strings, and
    /// an alias holds no dot, so any other reference that binds the column
    /// ends it within its path after the alias.
    fn bound_by(self, name: Col, parts: &[&str]) -> Option<Binding> {
        if self == name {
            return Some(Binding::Exact);
        }
        binding(&[self.rest?.as_str()], parts).map(|_| Binding::Suffix)
    }

    /// `f` of the dotted parts, `[alias]` or `[alias, rest]`.
    fn with_parts<R>(self, f: impl FnOnce(&[&str]) -> R) -> R {
        match self.rest {
            Some(rest) => f(&[self.alias.as_str(), rest.as_str()]),
            None => f(&[self.alias.as_str()]),
        }
    }
}

impl fmt::Display for Col {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rest {
            Some(rest) => write!(f, "{}.{}", self.alias, rest),
            None => write!(f, "{}", self.alias),
        }
    }
}

/// [`Pred`] over [`Col`]s. Conjuncts are shared, so splitting a
/// conjunction into its atoms clones no constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum APred {
    Eq(Col, Value),
    EqAttr(Col, Col),
    And(Vec<Rc<APred>>),
}

impl APred {
    /// The atomic conjuncts, flattened, in order.
    pub fn conjuncts(self: &Rc<APred>) -> Vec<Rc<APred>> {
        match &**self {
            APred::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            _ => vec![Rc::clone(self)],
        }
    }

    pub fn for_each_col(&self, f: &mut impl FnMut(Col)) {
        match self {
            APred::Eq(a, _) => f(*a),
            APred::EqAttr(a, b) => {
                f(*a);
                f(*b);
            }
            APred::And(ps) => ps.iter().for_each(|p| p.for_each_col(f)),
        }
    }

    fn map_cols(&self, f: &impl Fn(Col) -> Col) -> APred {
        match self {
            APred::Eq(a, v) => APred::Eq(f(*a), v.clone()),
            APred::EqAttr(a, b) => APred::EqAttr(f(*a), f(*b)),
            APred::And(ps) => APred::And(ps.iter().map(|p| Rc::new(p.map_cols(f))).collect()),
        }
    }

    fn import(p: &Pred) -> APred {
        match p {
            Pred::Eq(a, v) => APred::Eq(Col::parse(a), v.clone()),
            Pred::EqAttr(a, b) => APred::EqAttr(Col::parse(a), Col::parse(b)),
            Pred::And(ps) => APred::And(ps.iter().map(|q| Rc::new(APred::import(q))).collect()),
        }
    }

    fn export(&self) -> Pred {
        match self {
            APred::Eq(a, v) => Pred::Eq(a.to_string(), v.clone()),
            APred::EqAttr(a, b) => Pred::EqAttr(a.to_string(), b.to_string()),
            APred::And(ps) => Pred::And(ps.iter().map(|p| p.export()).collect()),
        }
    }
}

/// One operator; the arena's counterpart of a [`NalgExpr`] variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    Entry {
        scheme: Symbol,
        alias: Symbol,
    },
    External {
        name: Symbol,
    },
    Select {
        input: NodeId,
        pred: Rc<APred>,
    },
    Project {
        input: NodeId,
        cols: Rc<[Col]>,
    },
    Join {
        left: NodeId,
        right: NodeId,
        on: Rc<[(Col, Col)]>,
    },
    Unnest {
        input: NodeId,
        attr: Col,
    },
    Follow {
        input: NodeId,
        link: Col,
        target: Symbol,
        alias: Symbol,
    },
}

/// The children of a node, left to right.
#[derive(Clone, Copy)]
pub(crate) struct Children {
    ids: [NodeId; 2],
    len: usize,
}

impl std::ops::Deref for Children {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        &self.ids[..self.len]
    }
}

impl Node {
    pub fn children(&self) -> Children {
        let (ids, len) = match *self {
            Node::Entry { .. } | Node::External { .. } => ([NodeId(0); 2], 0),
            Node::Select { input, .. }
            | Node::Project { input, .. }
            | Node::Unnest { input, .. }
            | Node::Follow { input, .. } => ([input; 2], 1),
            Node::Join { left, right, .. } => ([left, right], 2),
        };
        Children { ids, len }
    }
}

/// The alias → page-scheme bindings of a subtree.
pub(crate) type Aliases = Rc<[(Symbol, Symbol)]>;

/// The page-scheme an alias is bound to.
pub(crate) fn scheme_of(aliases: &[(Symbol, Symbol)], alias: Symbol) -> Option<Symbol> {
    aliases.iter().find_map(|&(a, s)| (a == alias).then_some(s))
}

/// What is known about a subtree from its shape alone.
pub(crate) struct Info {
    /// `output_columns`; `None` where the tree version errors.
    pub header: Option<Rc<[Col]>>,
    /// `alias_map`; `None` on a duplicate alias.
    pub aliases: Option<Aliases>,
    /// Every reference the subtree mentions, in pre-order.
    pub refs: Rc<[Col]>,
    /// Every leaf is an entry point.
    pub computable: bool,
    /// Every σ and ⋈ below resolves its references against its inputs.
    pub sound: bool,
    /// A σ occurs in the subtree.
    pub has_select: bool,
    /// A ⋈ occurs in the subtree.
    pub has_join: bool,
    /// The subtree is a pure navigation (entry, unnests, follows).
    pub spine: bool,
    /// A ⋈ of two pure navigations occurs in the subtree.
    pub has_spine_join: bool,
    /// Follow-link operators in the subtree.
    pub follows: u32,
}

struct SchemeInfo<'ws> {
    page: &'ws PageScheme,
    /// `URL` and the top-level attribute names.
    rests: Rc<[Symbol]>,
}

struct AttrInfo<'ws> {
    field: &'ws Field,
    /// For a list attribute, the paths of its inner attributes.
    inner: Option<Rc<[Symbol]>>,
}

/// The arena. See the module documentation.
pub struct PlanArena<'ws> {
    pub(crate) ws: &'ws WebScheme,
    pub(crate) stats: &'ws SiteStatistics,
    nodes: Vec<Node>,
    infos: Vec<Info>,
    dedup: HashMap<Node, NodeId>,
    schemes: HashMap<Symbol, Option<SchemeInfo<'ws>>>,
    attrs: HashMap<(Symbol, Symbol), Option<AttrInfo<'ws>>>,
    pub(crate) estimates: EstimateMemo,
}

impl<'ws> PlanArena<'ws> {
    /// An empty arena over a web scheme, costing against `stats`.
    pub fn new(ws: &'ws WebScheme, stats: &'ws SiteStatistics) -> Self {
        PlanArena {
            ws,
            stats,
            nodes: Vec::new(),
            infos: Vec::new(),
            dedup: HashMap::new(),
            schemes: HashMap::new(),
            attrs: HashMap::new(),
            estimates: EstimateMemo::default(),
        }
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub(crate) fn info(&self, id: NodeId) -> &Info {
        &self.infos[id.index()]
    }

    pub(crate) fn children(&self, id: NodeId) -> Children {
        self.node(id).children()
    }

    // ----------------------------------------------------------------------
    // construction
    // ----------------------------------------------------------------------

    /// The id of `node`, made (and analysed) if it is new.
    pub(crate) fn mk(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let info = self.analyse(&node);
        // Every id numbers a node the arena holds, so memory runs out long
        // before the count reaches 2^32.
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.infos.push(info);
        self.dedup.insert(node, id);
        id
    }

    pub(crate) fn select(&mut self, input: NodeId, pred: Rc<APred>) -> NodeId {
        self.mk(Node::Select { input, pred })
    }

    /// Imports a tree. Structurally equal trees get the same id.
    pub fn import(&mut self, e: &NalgExpr) -> NodeId {
        let node = match e {
            NalgExpr::Entry { scheme, alias } => Node::Entry {
                scheme: Symbol::intern(scheme),
                alias: Symbol::intern(alias),
            },
            NalgExpr::External { name } => Node::External {
                name: Symbol::intern(name),
            },
            NalgExpr::Select { input, pred } => Node::Select {
                input: self.import(input),
                pred: Rc::new(APred::import(pred)),
            },
            NalgExpr::Project { input, cols } => Node::Project {
                input: self.import(input),
                cols: cols.iter().map(|c| Col::parse(c)).collect(),
            },
            NalgExpr::Join { left, right, on } => Node::Join {
                left: self.import(left),
                right: self.import(right),
                on: on
                    .iter()
                    .map(|(a, b)| (Col::parse(a), Col::parse(b)))
                    .collect(),
            },
            NalgExpr::Unnest { input, attr } => Node::Unnest {
                input: self.import(input),
                attr: Col::parse(attr),
            },
            NalgExpr::Follow {
                input,
                link,
                target,
                alias,
            } => Node::Follow {
                input: self.import(input),
                link: Col::parse(link),
                target: Symbol::intern(target),
                alias: Symbol::intern(alias),
            },
        };
        self.mk(node)
    }

    /// The tree an id stands for; `export(import(e)) == e`.
    pub fn export(&self, id: NodeId) -> NalgExpr {
        match self.node(id) {
            Node::Entry { scheme, alias } => NalgExpr::Entry {
                scheme: scheme.to_string(),
                alias: alias.to_string(),
            },
            Node::External { name } => NalgExpr::External {
                name: name.to_string(),
            },
            Node::Select { input, pred } => NalgExpr::Select {
                input: Box::new(self.export(*input)),
                pred: pred.export(),
            },
            Node::Project { input, cols } => NalgExpr::Project {
                input: Box::new(self.export(*input)),
                cols: cols.iter().map(Col::to_string).collect(),
            },
            Node::Join { left, right, on } => NalgExpr::Join {
                left: Box::new(self.export(*left)),
                right: Box::new(self.export(*right)),
                on: on
                    .iter()
                    .map(|(a, b)| (a.to_string(), b.to_string()))
                    .collect(),
            },
            Node::Unnest { input, attr } => NalgExpr::Unnest {
                input: Box::new(self.export(*input)),
                attr: attr.to_string(),
            },
            Node::Follow {
                input,
                link,
                target,
                alias,
            } => NalgExpr::Follow {
                input: Box::new(self.export(*input)),
                link: link.to_string(),
                target: target.to_string(),
                alias: alias.to_string(),
            },
        }
    }

    // ----------------------------------------------------------------------
    // memoised analysis
    // ----------------------------------------------------------------------

    /// The qualified output header of a subtree, as strings; `None` exactly
    /// where [`NalgExpr::output_columns`] errors on the exported tree.
    pub fn output_columns(&self, id: NodeId) -> Option<Vec<String>> {
        let header = self.info(id).header.as_ref()?;
        Some(header.iter().map(Col::to_string).collect())
    }

    /// The header, or the error [`NalgExpr::output_columns`] gives.
    pub(crate) fn header_or_err(&self, id: NodeId) -> Result<Rc<[Col]>> {
        self.info(id)
            .header
            .clone()
            .ok_or_else(|| match self.export(id).output_columns(self.ws) {
                Err(e) => OptError::Eval(e),
                Ok(_) => OptError::NoPlan(format!("no header for {id:?}")),
            })
    }

    /// The alias bindings, or the error [`NalgExpr::alias_map`] gives.
    pub(crate) fn aliases_or_err(&self, id: NodeId) -> Result<Aliases> {
        self.info(id)
            .aliases
            .clone()
            .ok_or_else(|| match self.export(id).alias_map() {
                Err(e) => OptError::Eval(e),
                Ok(_) => OptError::NoPlan(format!("no alias map for {id:?}")),
            })
    }

    /// The column of `input`'s header that `name` resolves to, or the error
    /// resolution reports.
    pub(crate) fn resolve_or_err(&self, input: NodeId, name: Col) -> Result<Col> {
        let header = self.header_or_err(input)?;
        let i = resolve_or_adm_err(&header, name).map_err(|e| OptError::Eval(e.into()))?;
        Ok(header[i])
    }

    /// Full static validation: the plan is computable and every reference
    /// (including selection and join attributes) resolves.
    pub(crate) fn is_valid(&self, id: NodeId) -> bool {
        let info = self.info(id);
        info.computable && info.header.is_some() && info.sound
    }

    fn scheme_info(&mut self, scheme: Symbol) -> Option<&SchemeInfo<'ws>> {
        let ws = self.ws;
        self.schemes
            .entry(scheme)
            .or_insert_with(|| {
                let page = ws.scheme(scheme.as_str()).ok()?;
                let rests = std::iter::once("URL")
                    .chain(page.fields.iter().map(|f| f.name.as_str()))
                    .map(Symbol::intern)
                    .collect();
                Some(SchemeInfo { page, rests })
            })
            .as_ref()
    }

    /// The columns a page-relation contributes under an alias.
    fn page_columns(&mut self, scheme: Symbol, alias: Symbol) -> Option<Vec<Col>> {
        let rests = &self.scheme_info(scheme)?.rests;
        Some(
            rests
                .iter()
                .map(|&r| Col {
                    alias,
                    rest: Some(r),
                })
                .collect(),
        )
    }

    fn attr_info(&mut self, scheme: Symbol, rest: Symbol) -> Option<&AttrInfo<'ws>> {
        if !self.attrs.contains_key(&(scheme, rest)) {
            let made = self.scheme_info(scheme).and_then(|s| {
                let path: Vec<&str> = rest.as_str().split('.').collect();
                if path == ["URL"] {
                    return None; // URL is the implicit key, not a field
                }
                let field = s.page.resolve_path(&path).ok()?;
                let inner = field.ty.list_fields().map(|fields| {
                    fields
                        .iter()
                        .map(|f| Symbol::intern(&format!("{rest}.{}", f.name)))
                        .collect()
                });
                Some(AttrInfo { field, inner })
            });
            self.attrs.insert((scheme, rest), made);
        }
        self.attrs[&(scheme, rest)].as_ref()
    }

    /// The field definition behind a qualified column, under an alias map;
    /// `None` where `nalg::expr::field_of_column` errors.
    pub(crate) fn field_of(
        &mut self,
        aliases: &[(Symbol, Symbol)],
        col: Col,
    ) -> Option<&'ws Field> {
        let scheme = scheme_of(aliases, col.alias)?;
        Some(self.attr_info(scheme, col.rest?)?.field)
    }

    fn analyse(&mut self, node: &Node) -> Info {
        let children = node.children();
        // What the children decide; each operator then adds its own part.
        let mut info = Info {
            header: None,
            aliases: None,
            refs: Rc::from([]),
            computable: children.iter().all(|&c| self.info(c).computable),
            sound: children.iter().all(|&c| self.info(c).sound),
            has_select: children.iter().any(|&c| self.info(c).has_select),
            has_join: children.iter().any(|&c| self.info(c).has_join),
            spine: children.iter().all(|&c| self.info(c).spine),
            has_spine_join: children.iter().any(|&c| self.info(c).has_spine_join),
            follows: children.iter().map(|&c| self.info(c).follows).sum(),
        };
        let header_of = |arena: &Self, c: NodeId| arena.info(c).header.clone();
        let aliases_of = |arena: &Self, c: NodeId| arena.info(c).aliases.clone();
        let mut refs: Vec<Col> = Vec::new();
        match node {
            Node::Entry { scheme, alias } => {
                info.header = self.page_columns(*scheme, *alias).map(Rc::from);
                info.aliases = Some(Rc::from([(*alias, *scheme)]));
            }
            Node::External { .. } => {
                info.aliases = Some(Rc::from([]));
                info.computable = false;
                info.spine = false;
            }
            Node::Select { input, pred } => {
                pred.for_each_col(&mut |c| refs.push(c));
                info.header = header_of(self, *input);
                info.aliases = aliases_of(self, *input);
                info.sound &= info
                    .header
                    .as_ref()
                    .is_some_and(|h| refs.iter().all(|&c| resolve(h, c).is_some()));
                info.has_select = true;
                info.spine = false;
            }
            Node::Project { input, cols } => {
                refs.extend(cols.iter());
                info.header = header_of(self, *input)
                    .and_then(|h| cols.iter().map(|&c| resolve(&h, c).map(|k| h[k])).collect());
                info.aliases = aliases_of(self, *input);
                info.spine = false;
            }
            Node::Join { left, right, on } => {
                refs.extend(on.iter().flat_map(|&(a, b)| [a, b]));
                if let (Some(l), Some(r)) = (header_of(self, *left), header_of(self, *right)) {
                    info.sound &= on
                        .iter()
                        .all(|&(a, b)| resolve(&l, a).is_some() && resolve(&r, b).is_some());
                    info.header = Some(l.iter().chain(r.iter()).copied().collect());
                } else {
                    info.sound = false;
                }
                if let (Some(l), Some(r)) = (aliases_of(self, *left), aliases_of(self, *right)) {
                    if !r.iter().any(|&(a, _)| scheme_of(&l, a).is_some()) {
                        info.aliases = Some(l.iter().chain(r.iter()).copied().collect());
                    }
                }
                info.has_join = true;
                info.has_spine_join |= info.spine;
                info.spine = false;
            }
            Node::Unnest { input, attr } => {
                refs.push(*attr);
                info.aliases = aliases_of(self, *input);
                info.header = self.unnest_header(
                    header_of(self, *input).as_deref(),
                    info.aliases.as_deref(),
                    *attr,
                );
            }
            Node::Follow {
                input,
                link,
                target,
                alias,
            } => {
                refs.push(*link);
                info.aliases = aliases_of(self, *input)
                    .filter(|a| scheme_of(a, *alias).is_none())
                    .map(|a| {
                        std::iter::once((*alias, *target))
                            .chain(a.iter().copied())
                            .collect()
                    });
                info.header = self
                    .follow_header(
                        header_of(self, *input).as_deref(),
                        info.aliases.as_deref(),
                        *link,
                        *target,
                    )
                    .and_then(|mut h| {
                        h.extend(self.page_columns(*target, *alias)?);
                        Some(Rc::from(h))
                    });
                info.follows += 1;
            }
        }
        for &c in children.iter() {
            refs.extend(self.info(c).refs.iter());
        }
        info.refs = Rc::from(refs);
        info
    }

    /// `input ∘ attr`: the input header without the list column, plus the
    /// list's inner attributes.
    fn unnest_header(
        &mut self,
        input: Option<&[Col]>,
        aliases: Option<&[(Symbol, Symbol)]>,
        attr: Col,
    ) -> Option<Rc<[Col]>> {
        let input = input?;
        let list = input[resolve(input, attr)?];
        let scheme = scheme_of(aliases?, list.alias)?;
        let inner = self.attr_info(scheme, list.rest?)?.inner.clone()?;
        Some(
            input
                .iter()
                .copied()
                .filter(|c| *c != list)
                .chain(inner.iter().map(|&r| Col {
                    alias: list.alias,
                    rest: Some(r),
                }))
                .collect(),
        )
    }

    /// The input part of `input –link→ target`'s header, once the link is
    /// known to be a link to `target`.
    fn follow_header(
        &mut self,
        input: Option<&[Col]>,
        aliases: Option<&[(Symbol, Symbol)]>,
        link: Col,
        target: Symbol,
    ) -> Option<Vec<Col>> {
        let input = input?;
        let link = input[resolve(input, link)?];
        let field = self.field_of(aliases?, link)?;
        (field.ty.link_target() == Some(target.as_str())).then(|| input.to_vec())
    }

    // ----------------------------------------------------------------------
    // rewriting primitives
    // ----------------------------------------------------------------------

    /// `id` with its children replaced (`id` itself when they are the same).
    pub(crate) fn with_children(&mut self, id: NodeId, new: &[NodeId]) -> NodeId {
        if *self.children(id) == *new {
            return id;
        }
        let node = match self.node(id).clone() {
            Node::Select { pred, .. } => Node::Select {
                input: new[0],
                pred,
            },
            Node::Project { cols, .. } => Node::Project {
                input: new[0],
                cols,
            },
            Node::Unnest { attr, .. } => Node::Unnest {
                input: new[0],
                attr,
            },
            Node::Follow {
                link,
                target,
                alias,
                ..
            } => Node::Follow {
                input: new[0],
                link,
                target,
                alias,
            },
            Node::Join { on, .. } => Node::Join {
                left: new[0],
                right: new[1],
                on,
            },
            leaf => leaf,
        };
        self.mk(node)
    }

    /// The node reached from `root` by a path of child indices.
    pub(crate) fn node_at(&self, root: NodeId, path: &[u8]) -> NodeId {
        path.iter()
            .fold(root, |id, &i| self.children(id)[usize::from(i)])
    }

    /// `root` with the subtree at `path` replaced: only the spine above it
    /// is rebuilt.
    pub(crate) fn replace_at(&mut self, root: NodeId, path: &[u8], new: NodeId) -> NodeId {
        let Some((&i, rest)) = path.split_first() else {
            return new;
        };
        let mut children = self.children(root).to_vec();
        children[usize::from(i)] = self.replace_at(children[usize::from(i)], rest, new);
        self.with_children(root, &children)
    }

    /// Every node of the tree that `wanted` accepts, in pre-order, with its
    /// path from `root`.
    pub(crate) fn positions(
        &self,
        root: NodeId,
        wanted: impl Fn(&Node) -> bool,
    ) -> Vec<(NodeId, Vec<u8>)> {
        fn go(
            arena: &PlanArena<'_>,
            id: NodeId,
            path: &mut Vec<u8>,
            wanted: &impl Fn(&Node) -> bool,
            out: &mut Vec<(NodeId, Vec<u8>)>,
        ) {
            if wanted(arena.node(id)) {
                out.push((id, path.clone()));
            }
            for (i, &c) in arena.children(id).iter().enumerate() {
                path.push(i as u8);
                go(arena, c, path, wanted, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        go(self, root, &mut Vec::new(), &wanted, &mut out);
        out
    }

    /// The references a node itself carries (not its children's).
    fn own_refs(&self, id: NodeId) -> &[Col] {
        let below: usize = self
            .children(id)
            .iter()
            .map(|&c| self.info(c).refs.len())
            .sum();
        let refs = &self.info(id).refs;
        &refs[..refs.len() - below]
    }

    /// Every reference of `root`'s tree outside the subtree at `skip`, in
    /// pre-order.
    pub(crate) fn for_each_ref_outside(&self, root: NodeId, skip: &[u8], f: &mut impl FnMut(Col)) {
        let Some((&i, rest)) = skip.split_first() else {
            return;
        };
        self.own_refs(root).iter().for_each(|&c| f(c));
        for (k, &c) in self.children(root).iter().enumerate() {
            if k == usize::from(i) {
                self.for_each_ref_outside(c, rest, f);
            } else {
                self.info(c).refs.iter().for_each(|&c| f(c));
            }
        }
    }

    /// Applies `f` to every reference of the tree — predicates,
    /// projections, join keys, unnest attributes, follow links — and `g`
    /// to every alias an entry or follow introduces. Subtrees that
    /// mention nothing `f` or `g` changes keep their id.
    pub(crate) fn map_names(
        &mut self,
        id: NodeId,
        f: &impl Fn(Col) -> Col,
        g: &impl Fn(Symbol) -> Symbol,
    ) -> NodeId {
        let info = self.info(id);
        let untouched = info.refs.iter().all(|&c| f(c) == c)
            && info
                .aliases
                .as_ref()
                .is_some_and(|a| a.iter().all(|&(alias, _)| g(alias) == alias));
        if untouched {
            return id;
        }
        let mapped = match self.node(id).clone() {
            Node::Entry { scheme, alias } => Node::Entry {
                scheme,
                alias: g(alias),
            },
            leaf @ Node::External { .. } => leaf,
            Node::Select { input, pred } => Node::Select {
                input: self.map_names(input, f, g),
                pred: Rc::new(pred.map_cols(f)),
            },
            Node::Project { input, cols } => Node::Project {
                input: self.map_names(input, f, g),
                cols: cols.iter().map(|&c| f(c)).collect(),
            },
            Node::Join { left, right, on } => Node::Join {
                left: self.map_names(left, f, g),
                right: self.map_names(right, f, g),
                on: on.iter().map(|&(a, b)| (f(a), f(b))).collect(),
            },
            Node::Unnest { input, attr } => Node::Unnest {
                input: self.map_names(input, f, g),
                attr: f(attr),
            },
            Node::Follow {
                input,
                link,
                target,
                alias,
            } => Node::Follow {
                input: self.map_names(input, f, g),
                link: f(link),
                target,
                alias: g(alias),
            },
        };
        self.mk(mapped)
    }

    /// Renames an alias: the `Entry`/`Follow` that introduces `from` and
    /// every reference under `from.`.
    pub(crate) fn rename_alias(&mut self, id: NodeId, from: Symbol, to: Symbol) -> NodeId {
        self.map_names(
            id,
            &|c| {
                if c.is_under_alias(from) {
                    c.with_alias(to)
                } else {
                    c
                }
            },
            &|a| if a == from { to } else { a },
        )
    }
}

/// Resolves a reference against a header by [`adm::name`]'s rule.
pub(crate) fn resolve(header: &[Col], name: Col) -> Option<usize> {
    name.with_parts(|parts| position(header.iter().map(|c| c.bound_by(name, parts))))
}

/// [`resolve`], with the error resolution reports.
fn resolve_or_adm_err(header: &[Col], name: Col) -> adm::Result<usize> {
    name.with_parts(|parts| adm::name::resolve(header, name, |c| c.bound_by(name, parts)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use websim::sitegen::university::university_scheme;

    impl PlanArena<'_> {
        /// Number of distinct subtrees made so far.
        fn len(&self) -> usize {
            self.nodes.len()
        }
    }

    fn prof_spine() -> NalgExpr {
        NalgExpr::entry("ProfListPage")
            .unnest("ProfList")
            .follow("ToProf", "ProfPage")
    }

    #[test]
    fn import_export_round_trips_and_dedups() {
        let (ws, stats) = (university_scheme().unwrap(), SiteStatistics::default());
        let mut arena = PlanArena::new(&ws, &stats);
        let e = prof_spine()
            .select(Pred::And(vec![
                Pred::eq("Rank", "Full"),
                Pred::And(vec![Pred::EqAttr("PName".into(), "ProfPage.PName".into())]),
            ]))
            .join(
                NalgExpr::entry_as("DeptListPage", "D").unnest("DeptList"),
                vec![("ProfPage.DName", "D.DeptList.DName")],
            )
            .project(vec!["ProfPage.PName", "A.", ".b"]);
        let id = arena.import(&e);
        assert_eq!(arena.export(id), e);
        let n = arena.len();
        assert_eq!(arena.import(&e), id);
        assert_eq!(arena.len(), n, "a second import makes no node");
        // a shared subtree is one node
        assert_eq!(arena.import(&prof_spine()), arena.import(&prof_spine()));
    }

    #[test]
    fn header_matches_output_columns() {
        let (ws, stats) = (university_scheme().unwrap(), SiteStatistics::default());
        let mut arena = PlanArena::new(&ws, &stats);
        for e in [
            prof_spine(),
            prof_spine().unnest("CourseList").project(vec!["CName"]),
            prof_spine().project(vec!["PName"]), // ambiguous suffix
            prof_spine().follow("PName", "ProfPage"), // not a link
            NalgExpr::external("Professor"),
            NalgExpr::entry("NoSuchPage"),
            prof_spine().unnest("ProfPage.URL"),
        ] {
            let id = arena.import(&e);
            assert_eq!(
                arena.output_columns(id),
                e.output_columns(&ws).ok(),
                "{e:?}"
            );
        }
    }

    #[test]
    fn validity_tracks_dangling_references() {
        let (ws, stats) = (university_scheme().unwrap(), SiteStatistics::default());
        let mut arena = PlanArena::new(&ws, &stats);
        let ok = arena.import(&prof_spine());
        assert!(arena.is_valid(ok));
        let bad = arena.import(&prof_spine().select(Pred::eq("NoSuchAttr", "x")));
        assert!(!arena.is_valid(bad));
        let bad = arena.import(&prof_spine().project(vec!["CoursePage.Description"]));
        assert!(!arena.is_valid(bad));
        let ext = arena.import(&NalgExpr::external("R"));
        assert!(!arena.is_valid(ext));
    }

    #[test]
    fn replace_at_rebuilds_only_the_spine() {
        let (ws, stats) = (university_scheme().unwrap(), SiteStatistics::default());
        let mut arena = PlanArena::new(&ws, &stats);
        let e = prof_spine().join(NalgExpr::entry("DeptListPage"), vec![("x", "y")]);
        let root = arena.import(&e);
        let before = arena.len();
        let new = arena.import(&NalgExpr::entry("SessionListPage"));
        let replaced = arena.replace_at(root, &[1], new);
        assert_eq!(arena.len(), before + 2, "the new leaf and the new join");
        let NalgExpr::Join { left, right, .. } = arena.export(replaced) else {
            panic!()
        };
        assert_eq!(*right, NalgExpr::entry("SessionListPage"));
        assert_eq!(*left, prof_spine());
        assert_eq!(
            arena.replace_at(root, &[1], arena.node_at(root, &[1])),
            root
        );
    }

    #[test]
    fn rename_alias_rewrites_refs_and_nodes() {
        let (ws, stats) = (university_scheme().unwrap(), SiteStatistics::default());
        let mut arena = PlanArena::new(&ws, &stats);
        let e = prof_spine().project(vec!["ProfPage.PName", "ProfPageX.PName"]);
        let id = arena.import(&e);
        let renamed = arena.rename_alias(id, Symbol::intern("ProfPage"), Symbol::intern("P2"));
        let NalgExpr::Project { cols, input } = arena.export(renamed) else {
            panic!()
        };
        assert_eq!(cols, vec!["P2.PName", "ProfPageX.PName"]);
        assert!(input.alias_map().unwrap().contains_key("P2"));
        // an alias the tree never mentions leaves the id alone
        assert_eq!(
            arena.rename_alias(id, Symbol::intern("Nope"), Symbol::intern("P3")),
            id
        );
    }

    /// Columns that share suffixes: `_1` aliases, nested `List.Field`,
    /// `URL`.
    const COLUMNS: [&str; 11] = [
        "P.URL",
        "P_1.URL",
        "P.Name",
        "P_1.Name",
        "P.DName",
        "P.List.Name",
        "P.List.ToQ",
        "P_1.List.Name",
        "Q.URL",
        "Q.Name",
        "Q.List.Name",
    ];

    /// References beside the exact ones: dotted suffixes, suffixes that
    /// do not start after a dot, unknown names.
    const REFERENCES: [&str; 10] = [
        "URL",
        "Name",
        "List.Name",
        "ToQ",
        "1.Name",
        "ame",
        "RL",
        "List",
        "Nope",
        "P.Nope",
    ];

    proptest::proptest! {
        #[test]
        fn the_arena_resolves_as_a_relation_does(
            mask in proptest::collection::vec(proptest::prelude::any::<bool>(), COLUMNS.len()),
            pick in 0usize..COLUMNS.len() + REFERENCES.len(),
        ) {
            let header: Vec<&str> = (COLUMNS.iter().zip(&mask))
                .filter_map(|(c, &keep)| keep.then_some(*c))
                .collect();
            let reference = COLUMNS.iter().chain(&REFERENCES).nth(pick).unwrap();
            let cols: Vec<Col> = header.iter().map(|c| Col::parse(c)).collect();
            let by_relation = adm::Relation::new(header.clone()).resolve(reference);
            let name = Col::parse(reference);
            assert_eq!(resolve(&cols, name), by_relation.clone().ok(), "{reference} in {header:?}");
            let kind = |r: adm::Result<usize>| r.map_err(|e| std::mem::discriminant(&e));
            assert_eq!(kind(resolve_or_adm_err(&cols, name)), kind(by_relation));
            for c in &cols {
                assert_eq!(c.is_url(), c.to_string().ends_with(".URL"), "{c}");
            }
        }
    }
}
