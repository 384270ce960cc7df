//! Round-trip property: every page a site generator publishes wraps back
//! into exactly the ground-truth tuple it was rendered from.

use websim::sitegen::{BibConfig, Bibliography, University, UniversityConfig};
use wrapper::wrap_page;

fn roundtrip_site(site: &websim::Site) {
    for scheme in site.scheme.schemes() {
        for (url, truth) in site.instance(&scheme.name) {
            let resp = site.server.get(&url).expect("page exists");
            let html = std::str::from_utf8(&resp.body).expect("utf8");
            let wrapped = wrap_page(scheme, html)
                .unwrap_or_else(|e| panic!("wrapping {url} ({}) failed: {e}", scheme.name));
            assert_eq!(wrapped, truth, "round-trip mismatch at {url}");
        }
    }
}

#[test]
fn university_pages_roundtrip() {
    let u = University::generate(UniversityConfig {
        departments: 3,
        professors: 10,
        courses: 20,
        seed: 77,
        ..UniversityConfig::default()
    })
    .unwrap();
    roundtrip_site(&u.site);
}

#[test]
fn bibliography_pages_roundtrip() {
    let b = Bibliography::generate(BibConfig {
        authors: 30,
        conferences: 5,
        db_conferences: 2,
        featured: 1,
        editions_per_conf: 3,
        papers_per_edition: 5,
        seed: 13,
        ..BibConfig::default()
    })
    .unwrap();
    roundtrip_site(&b.site);
}

#[test]
fn roundtrip_survives_mutations() {
    let mut u = University::generate(UniversityConfig {
        departments: 2,
        professors: 6,
        courses: 10,
        seed: 3,
        ..UniversityConfig::default()
    })
    .unwrap();
    u.add_course(0, "Fall", "Graduate").unwrap();
    u.update_course_description(1, "fresh text").unwrap();
    u.remove_course(2).unwrap();
    roundtrip_site(&u.site);
}

// ── round-trip on schemes nobody hand-built ────────────────────────────

mod drawn {
    //! A drawn page-scheme with a conforming instance, the checks a drawn
    //! page must pass, and — the offline `proptest` stand-in does not
    //! shrink — a shrinker that cuts a failing case down before it is
    //! printed.

    use adm::{ColumnRelBuilder, Field, PageScheme, Tuple, Url, Value, WebType};
    use proptest::test_runner::TestRng;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use wrapper::wrap_page;

    /// A tuple as it was stored before names were interned — `String`
    /// names, everything derived: what `Hash` and `{:?}` of an [`adm::Tuple`]
    /// are held to. Type, field and variant names mirror `adm`'s, since
    /// `{:?}` prints them.
    mod before {
        #[derive(Debug, Hash)]
        pub struct Tuple {
            pub fields: Vec<(String, Value)>,
        }

        #[derive(Debug, Hash)]
        #[allow(dead_code)] // read by the derives only
        pub enum Value {
            Text(String),
            Link(adm::Url),
            Null,
            List(Vec<Tuple>),
        }
    }

    fn as_before(t: &Tuple) -> before::Tuple {
        let value = |v: &Value| match v {
            Value::Text(s) => before::Value::Text(s.clone()),
            Value::Link(u) => before::Value::Link(u.clone()),
            Value::Null => before::Value::Null,
            Value::List(rows) => before::Value::List(rows.iter().map(as_before).collect()),
        };
        before::Tuple {
            fields: t.iter().map(|(n, v)| (n.to_string(), value(v))).collect(),
        }
    }

    /// The same tuple built field by field from `String` names.
    fn rebuilt(t: &Tuple) -> Tuple {
        t.iter().fold(Tuple::new(), |acc, (n, v)| match v {
            Value::List(rows) => acc.with_list(n.to_string(), rows.iter().map(rebuilt).collect()),
            v => acc.with(n.to_string(), v.clone()),
        })
    }

    fn digest(t: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[derive(Clone)]
    pub struct Case {
        pub fields: Vec<Field>,
        pub page: Tuple,
    }

    /// Few names, of both parities (`render_page` picks `<ul>` or `<table>`
    /// by the length of a list's name), so that one name at two nesting
    /// levels — the scoping rule of `wrap.rs` — is the common case.
    const NAMES: [&str; 7] = ["A", "Bb", "C", "Name", "Items", "Rows", "Ref"];

    /// Text that stresses escaping and trimming: the five characters
    /// `render_page` escapes, entity look-alikes, non-ASCII (a no-break
    /// space included, which `trim` strips at the ends), inner blanks.
    const ALPHABET: [&str; 16] = [
        "a", "Z", "7", " ", "  ", "&", "<", ">", "\"", "'", "&amp;", "&#x41;", "é", "日本",
        "\u{a0}", "-->",
    ];

    fn text(rng: &mut TestRng) -> String {
        let drawn: String = (0..rng.below(7))
            .map(|_| ALPHABET[rng.below(ALPHABET.len())])
            .collect();
        drawn.trim().to_string()
    }

    fn draw_fields(rng: &mut TestRng, depth: usize, most: usize) -> Vec<Field> {
        let mut names = NAMES.to_vec();
        (0..rng.in_range(1, most))
            .map(|_| {
                let name = names.swap_remove(rng.below(names.len()));
                let ty = match rng.below(if depth < 3 { 6 } else { 4 }) {
                    0 | 1 => WebType::Text,
                    2 => WebType::Image,
                    3 => WebType::link("P"),
                    _ => WebType::List(draw_fields(rng, depth + 1, 3)),
                };
                match rng.below(3) {
                    0 => Field::optional(name, ty),
                    _ => Field::new(name, ty),
                }
            })
            .collect()
    }

    fn draw_tuple(rng: &mut TestRng, fields: &[Field]) -> Tuple {
        fields.iter().fold(Tuple::new(), |t, f| {
            if f.optional && rng.below(3) == 0 {
                return t.with_null(f.sym());
            }
            match &f.ty {
                WebType::Text | WebType::Image => t.with(f.sym(), text(rng)),
                WebType::Link { .. } => {
                    let path = text(rng).replace([' ', '\u{a0}'], "_");
                    t.with(f.sym(), Value::Link(Url::new(path)))
                }
                WebType::List(inner) => {
                    let rows = (0..rng.below(4)).map(|_| draw_tuple(rng, inner));
                    t.with_list(f.sym(), rows.collect())
                }
            }
        })
    }

    pub fn draw(rng: &mut TestRng) -> Case {
        let fields = draw_fields(rng, 1, 6);
        let page = draw_tuple(rng, &fields);
        Case { fields, page }
    }

    /// The scheme one field a line, indented by nesting, then the instance.
    pub fn listing(case: &Case) -> String {
        fn level(fields: &[Field], indent: usize, out: &mut String) {
            for f in fields {
                let opt = if f.optional { "?" } else { "" };
                let kind = f.ty.kind();
                out.push_str(&format!("{:indent$}{}: {kind}{opt}\n", "", f.name));
                if let WebType::List(inner) = &f.ty {
                    level(inner, indent + 2, out);
                }
            }
        }
        let mut out = String::from("P\n");
        level(&case.fields, 2, &mut out);
        out + &format!("{}", case.page)
    }

    /// Everything a drawn page must satisfy; `Err` says what it did not.
    pub fn check(case: &Case) -> Result<(), String> {
        let Case { fields, page } = case;
        let differs = |what: &str, got: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
            Err(format!("{what}:\n   got {got:?}\n  want {want:?}"))
        };
        let scheme = PageScheme::new("P", fields.clone()).map_err(|e| e.to_string())?;
        if !page.conforms_to(fields) {
            return Err("the drawn instance does not conform to its scheme".into());
        }
        let html = websim::page::render_page(&scheme, page, "drawn");
        let wrapped = wrap_page(&scheme, &html).map_err(|e| format!("wrap_page: {e}"))?;
        if &wrapped != page {
            return differs("render_page → wrap_page", &wrapped, page);
        }
        let mut b = ColumnRelBuilder::from_symbols(fields.iter().map(Field::sym).collect());
        b.push_row(wrapped.values())
            .map_err(|e| format!("push_row: {e}"))?;
        let row = b.finish().tuple_at(0);
        if &row != page {
            return differs("push_row → tuple_at(0)", &row, page);
        }
        // Names are symbols in `wrapped`, were `String`s in `twin` and
        // still are in `old`: nothing a caller can observe tells them apart.
        let (twin, old) = (rebuilt(page), as_before(page));
        if wrapped != twin || wrapped.total_cmp(&twin).is_ne() {
            return differs("== / total_cmp against the rebuilt tuple", &wrapped, &twin);
        }
        if digest(&wrapped) != digest(&twin) || digest(&wrapped) != digest(&old) {
            return differs("Hash", &digest(&wrapped), &(digest(&twin), digest(&old)));
        }
        if format!("{wrapped:?}") != format!("{old:?}") {
            return differs("{:?}", &wrapped, &old);
        }
        if format!("{wrapped:#?}") != format!("{old:#?}") {
            return differs("{:#?}", &wrapped, &old);
        }
        Ok(())
    }

    /// One way of making a case smaller at one field of the scheme.
    #[derive(Clone, Copy, PartialEq)]
    enum Cut {
        /// Drop the field, from the scheme and from every tuple.
        Field,
        /// Keep at most this many rows of every list under the field.
        Rows(usize),
        /// Replace every non-null value under a mono-valued field by `x`.
        Plain,
    }

    /// Applies `how` to the field numbered `target` in a pre-order walk
    /// (`next` is the number of `fields[0]`), over all `tuples` of the level.
    fn cut_level(
        fields: &[Field],
        tuples: &[Tuple],
        next: &mut usize,
        target: usize,
        how: Cut,
    ) -> (Vec<Field>, Vec<Tuple>) {
        let mut kept = Vec::new();
        let mut out = vec![Tuple::new(); tuples.len()];
        for f in fields {
            let here = *next == target;
            *next += 1;
            let mut f = f.clone();
            let mut cells: Vec<Value> = (tuples.iter())
                .map(|t| t.get_sym(f.sym()).cloned().unwrap_or(Value::Null))
                .collect();
            if let WebType::List(inner) = &f.ty {
                // all rows under this field in one slice, regrouped after
                let mut lens = Vec::new();
                let mut rows = Vec::new();
                for cell in &cells {
                    let list = cell.as_list().unwrap_or(&[]);
                    let keep = match how {
                        Cut::Rows(n) if here => n.min(list.len()),
                        _ => list.len(),
                    };
                    lens.push(keep);
                    rows.extend_from_slice(&list[..keep]);
                }
                let (inner, rows) = cut_level(inner, &rows, next, target, how);
                let mut rows = rows.into_iter();
                for (cell, len) in cells.iter_mut().zip(lens) {
                    if !cell.is_null() {
                        *cell = Value::List(rows.by_ref().take(len).collect());
                    }
                }
                f.ty = WebType::List(inner);
            } else if here && how == Cut::Plain {
                for cell in &mut cells {
                    match cell {
                        Value::Text(s) => *s = "x".into(),
                        Value::Link(u) => *u = Url::new("/x"),
                        _ => {}
                    }
                }
            }
            if here && how == Cut::Field {
                continue;
            }
            for (t, cell) in out.iter_mut().zip(cells) {
                *t = std::mem::take(t).with(f.sym(), cell);
            }
            kept.push(f);
        }
        (kept, out)
    }

    fn count(fields: &[Field]) -> usize {
        let inner = |f: &Field| f.ty.list_fields().map_or(0, count);
        fields.iter().map(|f| 1 + inner(f)).sum()
    }

    /// Greedy: take the first single cut that leaves a shorter listing and
    /// still fails, until none does.
    pub fn shrink(mut case: Case, fails: impl Fn(&Case) -> bool) -> Case {
        loop {
            let cuts = (0..count(&case.fields)).flat_map(|target| {
                [Cut::Field, Cut::Rows(0), Cut::Rows(1), Cut::Plain].map(|how| (target, how))
            });
            let smaller = cuts
                .map(|(target, how)| {
                    let (page, fields) = (std::slice::from_ref(&case.page), &case.fields);
                    let (fields, mut pages) = cut_level(fields, page, &mut 0, target, how);
                    Case {
                        fields,
                        page: pages.remove(0),
                    }
                })
                .find(|c| {
                    !c.fields.is_empty() && listing(c).len() < listing(&case).len() && fails(c)
                });
            match smaller {
                Some(c) => case = c,
                None => return case,
            }
        }
    }

    /// True if some text of the page holds `needle`.
    pub fn holds(t: &Tuple, needle: &str) -> bool {
        t.iter().any(|(_, v)| match v {
            Value::Text(s) => s.contains(needle),
            Value::List(rows) => rows.iter().any(|r| holds(r, needle)),
            _ => false,
        })
    }
}

/// The offline `proptest` stand-in has no recursive strategies: the case
/// is drawn by hand from the runner's own generator.
struct DrawnPages;

impl proptest::Strategy for DrawnPages {
    type Value = drawn::Case;
    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> drawn::Case {
        drawn::draw(rng)
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(400))]
    #[test]
    fn drawn_schemes_roundtrip(case in DrawnPages) {
        let fails = |c: &drawn::Case| {
            let check = std::panic::AssertUnwindSafe(|| drawn::check(c));
            !matches!(std::panic::catch_unwind(check), Ok(Ok(())))
        };
        if let Err(why) = drawn::check(&case) {
            let small = drawn::shrink(case, fails);
            let still = drawn::check(&small).err().unwrap_or(why);
            panic!("{still}\nshrunk to:\n{}", drawn::listing(&small));
        }
        // The shrinker is held to its promise on a planted failure: "a
        // page fails when one of its texts holds an ampersand".
        let planted = |c: &drawn::Case| drawn::holds(&c.page, "&");
        if planted(&case) {
            let small = drawn::shrink(case, planted);
            let shown = drawn::listing(&small);
            assert!(planted(&small) && shown.lines().count() <= 20, "{shown}");
        }
    }
}
