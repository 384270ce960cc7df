//! Navigation paths through a web scheme.
//!
//! A navigation path starts at an entry point and alternates unnesting
//! (descending into lists inside a page) with following links (moving to
//! another page-relation). Computable NALG expressions are exactly those
//! whose leaves are entry points (Section 4), so enumerating paths from
//! entry points to a target scheme enumerates the candidate *default
//! navigations* for external relations over that scheme.

use crate::schema::WebScheme;
use std::fmt;

/// One hop of a navigation path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// Unnest a list attribute of the current page-scheme
    /// (the attribute's name at the current nesting level).
    Unnest(String),
    /// Follow a currently visible link attribute to its target scheme.
    Follow {
        /// The link attribute name at the current nesting level.
        link: String,
        /// The target page-scheme.
        target: String,
    },
}

impl fmt::Display for PathStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathStep::Unnest(a) => write!(f, "∘ {a}"),
            PathStep::Follow { link, target } => write!(f, "–{link}→ {target}"),
        }
    }
}

/// A navigation path: an entry-point scheme plus a sequence of steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NavPath {
    /// The entry-point page-scheme the path starts from.
    pub entry: String,
    /// The steps, in order.
    pub steps: Vec<PathStep>,
}

impl NavPath {
    /// A path that stays at the entry point.
    pub fn at(entry: impl Into<String>) -> Self {
        NavPath {
            entry: entry.into(),
            steps: Vec::new(),
        }
    }

    /// Appends an unnest step; builder style.
    pub fn unnest(mut self, attr: impl Into<String>) -> Self {
        self.steps.push(PathStep::Unnest(attr.into()));
        self
    }

    /// Appends a follow step; builder style.
    pub fn follow(mut self, link: impl Into<String>, target: impl Into<String>) -> Self {
        self.steps.push(PathStep::Follow {
            link: link.into(),
            target: target.into(),
        });
        self
    }

    /// The page-scheme the path ends on.
    pub fn final_scheme(&self) -> &str {
        self.steps
            .iter()
            .rev()
            .find_map(|s| match s {
                PathStep::Follow { target, .. } => Some(target.as_str()),
                _ => None,
            })
            .unwrap_or(&self.entry)
    }

    /// Number of link traversals.
    pub fn hops(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PathStep::Follow { .. }))
            .count()
    }
}

impl fmt::Display for NavPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.entry)?;
        for s in &self.steps {
            write!(f, " {s}")?;
        }
        Ok(())
    }
}

/// Enumerates all acyclic navigation paths from any entry point to
/// `target`, visiting each page-scheme at most once per path and following
/// at most `max_hops` links. Paths are returned shortest-first.
pub fn enumerate_paths(ws: &WebScheme, target: &str, max_hops: usize) -> Vec<NavPath> {
    let mut out = Vec::new();
    let mut queue: std::collections::VecDeque<(NavPath, Vec<String>)> =
        std::collections::VecDeque::new();
    for ep in ws.entry_points() {
        queue.push_back((NavPath::at(ep.scheme.clone()), vec![ep.scheme.clone()]));
    }
    while let Some((path, visited)) = queue.pop_front() {
        let current = path.final_scheme().to_string();
        if current == target {
            out.push(path.clone());
            // A path may continue through the target to reach it again only
            // in cyclic schemes; we stop at first arrival.
            continue;
        }
        if path.hops() >= max_hops {
            continue;
        }
        let Ok(scheme) = ws.scheme(&current) else {
            continue;
        };
        for (link_path, link_target) in scheme.link_paths() {
            if visited.iter().any(|v| v == &link_target) {
                continue;
            }
            let Some((link, lists)) = link_path.split_last() else {
                continue;
            };
            let mut p = path.clone();
            // Unnest every enclosing list, then follow the leaf link.
            for seg in lists {
                p.steps.push(PathStep::Unnest(seg.clone()));
            }
            p.steps.push(PathStep::Follow {
                link: link.clone(),
                target: link_target.clone(),
            });
            let mut v = visited.clone();
            v.push(link_target.clone());
            queue.push_back((p, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PageScheme;
    use crate::types::Field;

    /// ListPage →ToItem ItemPage →ToDetail DetailPage, plus a direct
    /// entry-point link HomePage →ToDetail DetailPage.
    fn scheme() -> WebScheme {
        let home = PageScheme::new(
            "HomePage",
            vec![
                Field::link("ToList", "ListPage"),
                Field::link("ToDetail", "DetailPage"),
            ],
        )
        .unwrap();
        let list = PageScheme::new(
            "ListPage",
            vec![Field::list(
                "Items",
                vec![Field::text("Name"), Field::link("ToItem", "ItemPage")],
            )],
        )
        .unwrap();
        let item = PageScheme::new(
            "ItemPage",
            vec![Field::text("Name"), Field::link("ToDetail", "DetailPage")],
        )
        .unwrap();
        let detail = PageScheme::new("DetailPage", vec![Field::text("Info")]).unwrap();
        WebScheme::builder()
            .scheme(home)
            .scheme(list)
            .scheme(item)
            .scheme(detail)
            .entry_point("HomePage", "/index.html")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_and_display() {
        let p = NavPath::at("ListPage")
            .unnest("Items")
            .follow("ToItem", "ItemPage");
        assert_eq!(p.to_string(), "ListPage ∘ Items –ToItem→ ItemPage");
        assert_eq!(p.final_scheme(), "ItemPage");
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn enumerate_finds_both_routes() {
        let ws = scheme();
        let paths = enumerate_paths(&ws, "DetailPage", 4);
        // direct: Home –ToDetail→ Detail
        // indirect: Home –ToList→ List ∘ Items –ToItem→ Item –ToDetail→ Detail
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].hops(), 1); // shortest first
        assert_eq!(paths[1].hops(), 3);
        assert!(paths[1]
            .steps
            .iter()
            .any(|s| matches!(s, PathStep::Unnest(a) if a == "Items")));
    }

    #[test]
    fn enumerate_respects_hop_limit() {
        let ws = scheme();
        let paths = enumerate_paths(&ws, "DetailPage", 1);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 1);
    }

    #[test]
    fn enumerate_target_is_entry() {
        let ws = scheme();
        let paths = enumerate_paths(&ws, "HomePage", 3);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].steps.is_empty());
    }

    #[test]
    fn enumerate_unreachable() {
        let ws = scheme();
        assert!(enumerate_paths(&ws, "NoSuchPage", 3).is_empty());
    }
}
