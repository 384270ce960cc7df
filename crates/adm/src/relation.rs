//! Page-relations: nested relations with named, qualified columns.
//!
//! Intermediate results of the navigational algebra are relations whose
//! columns carry *qualified dotted names* (`ProfPage.URL`,
//! `ProfPage.CourseList.CName`, …). Attribute references in queries resolve
//! by [`crate::name`]: exact match, else unique dotted suffix (`CName`
//! resolves to the single column ending in `.CName`), the paper's
//! convention that "attributes are suitably renamed whenever needed".
//!
//! All operators have set semantics: projection deduplicates, and we assume
//! (per the paper, footnote 3) no duplicates arise inside pages.

use crate::error::AdmError;
use crate::value::Value;
use crate::Result;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A relation: a header of qualified column names plus rows of values.
///
/// **The rows are shared, copy-on-write.** They sit behind one `Arc`, so
/// [`Clone`] and [`Relation::rename`] copy the header and bump a reference —
/// a maintained view hands the same rows to every reader
/// ([`Relation::from_shared_rows`]). The only writer is
/// [`Relation::push_row`] (and [`Relation::union`], which builds on a clone):
/// it writes in place while it is the rows' only holder and copies them
/// first otherwise, so no holder ever sees a row it did not put there.
/// Equality, `Debug` and every row accessor read through the `Arc` and are
/// what they were when the rows were owned.
///
/// **The row operators are the reference, not the request path.** The
/// evaluator runs σ, π, ⋈ and μ on [`crate::ColumnRel`]'s kernels; `select`,
/// `select_eq`, `project`, `join`, `unnest`, `union` and `minus` stay as the
/// row-at-a-time semantics those kernels are checked against (the reference
/// interpreter, the property suites and the columnar-vs-row unit tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    columns: Vec<String>,
    rows: Arc<Vec<Vec<Value>>>,
}

impl Relation {
    /// An empty relation with the given header.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        Relation {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Arc::default(),
        }
    }

    /// Builds a relation from a header and rows, checking arity.
    pub fn from_rows<S: Into<String>>(columns: Vec<S>, rows: Vec<Vec<Value>>) -> Result<Self> {
        Relation::from_shared_rows(columns, Arc::new(rows))
    }

    /// Builds a relation over rows someone else also holds, checking arity
    /// and copying nothing: the relation reads the caller's rows for as long
    /// as nobody pushes to it (see the type's copy-on-write contract).
    pub fn from_shared_rows<S: Into<String>>(
        columns: Vec<S>,
        rows: Arc<Vec<Vec<Value>>>,
    ) -> Result<Self> {
        let expected = columns.len();
        if let Some(row) = rows.iter().find(|r| r.len() != expected) {
            return Err(AdmError::ArityMismatch {
                expected,
                found: row.len(),
            });
        }
        Ok(Relation {
            columns: columns.into_iter().map(Into::into).collect(),
            rows,
        })
    }

    /// A relation over rows the caller built with one value per column, so
    /// there is no arity to check.
    pub(crate) fn from_full_rows(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == columns.len()));
        Relation {
            columns,
            rows: Arc::new(rows),
        }
    }

    /// The column header.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row, checking arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(AdmError::ArityMismatch {
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        Arc::make_mut(&mut self.rows).push(row);
        Ok(())
    }

    /// Resolves a column reference by [`crate::name`]'s rule: the column
    /// named exactly, else the one whose dotted suffix it is (`Name`
    /// matches `ProfPage.Name`).
    pub fn resolve(&self, name: &str) -> Result<usize> {
        crate::name::resolve_name(&self.columns, name)
    }

    /// Returns the value at `(row, column-name)`.
    pub fn value(&self, row: usize, name: &str) -> Result<&Value> {
        let i = self.resolve(name)?;
        Ok(&self.rows[row][i])
    }

    /// Selection with an arbitrary predicate over rows.
    pub fn select<F: FnMut(&[Value]) -> bool>(&self, mut pred: F) -> Relation {
        Relation {
            columns: self.columns.clone(),
            rows: Arc::new(self.rows.iter().filter(|r| pred(r)).cloned().collect()),
        }
    }

    /// Selection `column = constant`.
    pub fn select_eq(&self, column: &str, value: &Value) -> Result<Relation> {
        let i = self.resolve(column)?;
        Ok(self.select(|r| &r[i] == value))
    }

    /// Projection onto the named columns, with set-semantics deduplication.
    pub fn project(&self, cols: &[&str]) -> Result<Relation> {
        let idx: Vec<usize> = cols
            .iter()
            .map(|c| self.resolve(c))
            .collect::<Result<_>>()?;
        let columns: Vec<String> = idx.iter().map(|&i| self.columns[i].clone()).collect();
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        for row in self.rows.iter() {
            let out: Vec<Value> = idx.iter().map(|&i| row[i].clone()).collect();
            if seen.insert(out.clone()) {
                rows.push(out);
            }
        }
        Ok(Relation {
            columns,
            rows: Arc::new(rows),
        })
    }

    /// Removes duplicate rows.
    pub fn distinct(&self) -> Relation {
        let mut seen = HashSet::new();
        Relation {
            columns: self.columns.clone(),
            rows: Arc::new(
                self.rows
                    .iter()
                    .filter(|r| seen.insert((*r).clone()))
                    .cloned()
                    .collect(),
            ),
        }
    }

    /// Equi-join on pairs of columns (hash join on the left). Column names
    /// from both sides are preserved; the header must stay unambiguous, so
    /// callers qualify columns before joining.
    pub fn join(&self, other: &Relation, on: &[(&str, &str)]) -> Result<Relation> {
        let left_keys: Vec<usize> = on
            .iter()
            .map(|(l, _)| self.resolve(l))
            .collect::<Result<_>>()?;
        let right_keys: Vec<usize> = on
            .iter()
            .map(|(_, r)| other.resolve(r))
            .collect::<Result<_>>()?;
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        // Hash the smaller side? Keep it simple: hash the right side.
        let mut table: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
        for (ri, row) in other.rows.iter().enumerate() {
            let key: Vec<&Value> = right_keys.iter().map(|&i| &row[i]).collect();
            if key.iter().any(|v| v.is_null()) {
                continue; // nulls never join
            }
            table.entry(key).or_default().push(ri);
        }
        let mut rows = Vec::new();
        for lrow in self.rows.iter() {
            let key: Vec<&Value> = left_keys.iter().map(|&i| &lrow[i]).collect();
            if key.iter().any(|v| v.is_null()) {
                continue;
            }
            if let Some(matches) = table.get(&key) {
                for &ri in matches {
                    let mut out = lrow.clone();
                    out.extend(other.rows[ri].iter().cloned());
                    rows.push(out);
                }
            }
        }
        Ok(Relation {
            columns,
            rows: Arc::new(rows),
        })
    }

    /// Unnests a list column: each inner tuple produces an output row; the
    /// list column is replaced by columns `{col}.{field}` for the given
    /// inner field names. Rows whose list is empty produce no output (μ
    /// semantics on PNF relations).
    pub fn unnest(&self, column: &str, inner_fields: &[String]) -> Result<Relation> {
        let ci = self.resolve(column)?;
        let col_name = self.columns[ci].clone();
        let mut columns: Vec<String> =
            Vec::with_capacity(self.columns.len() - 1 + inner_fields.len());
        for (i, c) in self.columns.iter().enumerate() {
            if i != ci {
                columns.push(c.clone());
            }
        }
        for f in inner_fields {
            columns.push(format!("{col_name}.{f}"));
        }
        let mut rows = Vec::new();
        for row in self.rows.iter() {
            let Value::List(inner) = &row[ci] else {
                if row[ci].is_null() {
                    continue; // null list ≡ empty list
                }
                return Err(AdmError::TypeMismatch {
                    attr: col_name.clone(),
                    expected: "list",
                    found: format!("{:?}", row[ci]),
                });
            };
            for t in inner {
                let mut out: Vec<Value> = Vec::with_capacity(columns.len());
                for (i, v) in row.iter().enumerate() {
                    if i != ci {
                        out.push(v.clone());
                    }
                }
                for f in inner_fields {
                    out.push(t.get(f).cloned().unwrap_or(Value::Null));
                }
                rows.push(out);
            }
        }
        Ok(Relation {
            columns,
            rows: Arc::new(rows),
        })
    }

    /// Renames a column (exact name required).
    pub fn rename(&self, from: &str, to: &str) -> Result<Relation> {
        let i = self.resolve(from)?;
        let mut columns = self.columns.clone();
        columns[i] = to.to_string();
        Ok(Relation {
            columns,
            rows: Arc::clone(&self.rows),
        })
    }

    /// Set union (headers must match exactly).
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        if self.columns != other.columns {
            return Err(AdmError::ArityMismatch {
                expected: self.columns.len(),
                found: other.columns.len(),
            });
        }
        let mut out = self.clone();
        Arc::make_mut(&mut out.rows).extend(other.rows.iter().cloned());
        Ok(out.distinct())
    }

    /// Set difference `self − other` (headers must match exactly).
    pub fn minus(&self, other: &Relation) -> Result<Relation> {
        if self.columns != other.columns {
            return Err(AdmError::ArityMismatch {
                expected: self.columns.len(),
                found: other.columns.len(),
            });
        }
        let exclude: HashSet<&Vec<Value>> = other.rows.iter().collect();
        Ok(Relation {
            columns: self.columns.clone(),
            rows: Arc::new(
                self.rows
                    .iter()
                    .filter(|r| !exclude.contains(r))
                    .cloned()
                    .collect(),
            ),
        })
    }

    /// Rows sorted deterministically (for stable output and tests).
    pub fn sorted(&self) -> Relation {
        let mut rows = Vec::clone(&self.rows);
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b.iter()) {
                match x.total_cmp(y) {
                    std::cmp::Ordering::Equal => continue,
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        });
        Relation {
            columns: self.columns.clone(),
            rows: Arc::new(rows),
        }
    }

    /// Renders an ASCII table (sorted rows) — handy in examples and tests.
    pub fn to_table(&self) -> String {
        let sorted = self.sorted();
        let mut cells = Vec::with_capacity(sorted.rows.len() * sorted.columns.len());
        for row in sorted.rows.iter() {
            cells.extend(row.iter().map(|v| v.to_string()));
        }
        crate::display::render_ascii_table(&sorted.columns, sorted.rows.len(), &cells)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Tuple;

    fn profs() -> Relation {
        Relation::from_rows(
            vec!["ProfPage.URL", "ProfPage.PName", "ProfPage.Rank"],
            vec![
                vec![Value::link("/p1"), Value::text("Codd"), Value::text("Full")],
                vec![Value::link("/p2"), Value::text("Gray"), Value::text("Full")],
                vec![
                    Value::link("/p3"),
                    Value::text("Kim"),
                    Value::text("Assistant"),
                ],
            ],
        )
        .unwrap()
    }

    fn courses() -> Relation {
        Relation::from_rows(
            vec!["CoursePage.URL", "CoursePage.CName", "CoursePage.ToProf"],
            vec![
                vec![Value::link("/c1"), Value::text("DB"), Value::link("/p1")],
                vec![Value::link("/c2"), Value::text("OS"), Value::link("/p3")],
                vec![Value::link("/c3"), Value::text("AI"), Value::link("/p1")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn resolve_exact_and_suffix() {
        let r = profs();
        assert_eq!(r.resolve("ProfPage.PName").unwrap(), 1);
        assert_eq!(r.resolve("PName").unwrap(), 1);
        assert!(matches!(
            r.resolve("Nope"),
            Err(AdmError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn resolve_ambiguous() {
        let r = Relation::new(vec!["A.Name", "B.Name"]);
        assert!(matches!(
            r.resolve("Name"),
            Err(AdmError::AmbiguousAttribute { .. })
        ));
        // exact qualified still works
        assert_eq!(r.resolve("A.Name").unwrap(), 0);
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::new(vec!["A"]);
        assert!(r
            .push_row(vec![Value::text("x"), Value::text("y")])
            .is_err());
        assert!(r.push_row(vec![Value::text("x")]).is_ok());
    }

    #[test]
    fn select_eq_filters() {
        let r = profs().select_eq("Rank", &Value::text("Full")).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn project_dedups() {
        let r = profs().project(&["Rank"]).unwrap();
        assert_eq!(r.len(), 2); // Full, Assistant
        assert_eq!(r.columns(), &["ProfPage.Rank".to_string()]);
    }

    #[test]
    fn join_on_link() {
        let j = courses()
            .join(&profs(), &[("CoursePage.ToProf", "ProfPage.URL")])
            .unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.columns().len(), 6);
        // every joined row's link matches its URL
        for i in 0..j.len() {
            assert_eq!(
                j.value(i, "CoursePage.ToProf").unwrap(),
                j.value(i, "ProfPage.URL").unwrap()
            );
        }
    }

    #[test]
    fn join_skips_nulls() {
        let mut c = courses();
        c.push_row(vec![Value::link("/c4"), Value::text("ML"), Value::Null])
            .unwrap();
        let j = c.join(&profs(), &[("ToProf", "URL")]).unwrap();
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn unnest_expands_lists() {
        let r = Relation::from_rows(
            vec!["DeptPage.URL", "DeptPage.ProfList"],
            vec![
                vec![
                    Value::link("/d1"),
                    Value::List(vec![
                        Tuple::new()
                            .with("PName", "Codd")
                            .with("ToProf", Value::link("/p1")),
                        Tuple::new()
                            .with("PName", "Gray")
                            .with("ToProf", Value::link("/p2")),
                    ]),
                ],
                vec![Value::link("/d2"), Value::List(vec![])],
            ],
        )
        .unwrap();
        let u = r
            .unnest("ProfList", &["PName".into(), "ToProf".into()])
            .unwrap();
        assert_eq!(u.len(), 2); // empty list row vanishes
        assert_eq!(
            u.columns(),
            &[
                "DeptPage.URL".to_string(),
                "DeptPage.ProfList.PName".to_string(),
                "DeptPage.ProfList.ToProf".to_string(),
            ]
        );
        assert_eq!(u.value(0, "PName").unwrap().as_text(), Some("Codd"));
    }

    #[test]
    fn unnest_null_list_is_empty() {
        let r = Relation::from_rows(
            vec!["P.URL", "P.L"],
            vec![vec![Value::link("/x"), Value::Null]],
        )
        .unwrap();
        let u = r.unnest("L", &["A".into()]).unwrap();
        assert!(u.is_empty());
    }

    #[test]
    fn unnest_missing_inner_field_yields_null() {
        let r = Relation::from_rows(
            vec!["P.L"],
            vec![vec![Value::List(vec![Tuple::new().with("A", "x")])]],
        )
        .unwrap();
        let u = r.unnest("L", &["A".into(), "B".into()]).unwrap();
        assert!(u.value(0, "P.L.B").unwrap().is_null());
    }

    #[test]
    fn unnest_type_error_on_mono() {
        let r = profs();
        assert!(matches!(
            r.unnest("PName", &[]),
            Err(AdmError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn union_and_minus() {
        let a = Relation::from_rows(
            vec!["X"],
            vec![vec![Value::text("1")], vec![Value::text("2")]],
        )
        .unwrap();
        let b = Relation::from_rows(
            vec!["X"],
            vec![vec![Value::text("2")], vec![Value::text("3")]],
        )
        .unwrap();
        assert_eq!(a.union(&b).unwrap().len(), 3);
        let d = a.minus(&b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.value(0, "X").unwrap().as_text(), Some("1"));
        let c = Relation::new(vec!["Y"]);
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn rename_resolves_the_new_name() {
        let r = profs().rename("ProfPage.Rank", "R").unwrap();
        assert!(r.resolve("R").is_ok());
    }

    #[test]
    fn a_pushed_row_reaches_no_other_holder_of_the_rows() {
        let original = profs();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.rows, &copy.rows), "a clone shares");
        copy.push_row(vec![
            Value::link("/p4"),
            Value::text("Lamport"),
            Value::Null,
        ])
        .unwrap();
        assert_eq!((original.len(), copy.len()), (3, 4));
        assert_eq!(original, profs());
        assert_eq!(copy.rows()[..3], *original.rows());
        // the only holder writes in place
        let before = Arc::as_ptr(&copy.rows);
        copy.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(before, Arc::as_ptr(&copy.rows));
        // union builds on a clone and leaves both inputs alone
        let both = original.union(&copy).unwrap();
        assert_eq!((original.len(), copy.len(), both.len()), (3, 5, 5));
        // rows somebody else holds are read, never written
        let shared = Arc::new(original.rows().to_vec());
        let mut over =
            Relation::from_shared_rows(original.columns().to_vec(), Arc::clone(&shared)).unwrap();
        assert!(Arc::ptr_eq(&shared, &over.rows));
        over.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!((shared.len(), over.len()), (3, 4));
        assert!(
            Relation::from_shared_rows(vec!["A"], shared).is_err(),
            "arity"
        );
    }

    #[test]
    fn rename_shares_the_rows() {
        let r = profs();
        let renamed = r.rename("ProfPage.Rank", "R").unwrap();
        assert!(Arc::ptr_eq(&r.rows, &renamed.rows));
        assert_eq!(renamed.rows(), r.rows());
        assert_eq!(renamed.columns()[2], "R");
    }

    #[test]
    fn equality_and_debug_read_through_the_sharing() {
        let (a, b) = (profs(), profs());
        assert!(!Arc::ptr_eq(&a.rows, &b.rows));
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, a.rename("ProfPage.URL", "X").unwrap());
        assert_ne!(a, a.select_eq("Rank", &Value::text("Full")).unwrap());
        // what `#[derive(Debug)]` printed when the rows were owned
        assert_eq!(
            format!("{a:?}"),
            format!(
                "Relation {{ columns: {:?}, rows: {:?} }}",
                a.columns(),
                a.rows()
            )
        );
    }

    #[test]
    fn table_render_is_stable() {
        let t1 = profs().to_table();
        let t2 = profs().to_table();
        assert_eq!(t1, t2);
        assert!(t1.contains("Codd"));
        assert!(t1.contains("ProfPage.PName"));
    }
}
