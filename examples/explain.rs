//! A miniature EXPLAIN tool: pass an SQL query over the university view on
//! the command line and see every candidate navigation plan with its
//! estimated cost.
//!
//! ```sh
//! cargo run --example explain -- "SELECT PName FROM Professor WHERE Rank = 'Full'"
//! cargo run --example explain            # uses a default query
//! ```

use webviews::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sql = std::env::args().nth(1).unwrap_or_else(|| {
        "SELECT c.CName, Description \
         FROM Professor p, CourseInstructor ci, Course c \
         WHERE p.PName = ci.PName AND ci.CName = c.CName \
           AND p.Rank = 'Full' AND c.Session = 'Fall'"
            .to_string()
    });

    let u = University::generate(UniversityConfig::default())?;
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();

    println!("external view:");
    for rel in catalog.relations() {
        println!("  {}({})", rel.name, rel.attrs.join(", "));
    }
    println!("\nSQL: {sql}\n");

    let query = parse_query(&sql, &catalog)?;
    let optimizer = Optimizer::new(&u.site.scheme, &catalog, &stats);
    let explain = optimizer.optimize(&query)?;
    println!("{}", explain.report());

    // also show what each rewrite stage contributes, by re-optimizing with
    // parts of the rule set disabled
    println!("ablation (estimated pages of the best plan):");
    let variants: Vec<(&str, RuleMask)> = vec![
        ("full Algorithm 1", RuleMask::all()),
        (
            "no pointer chase (rule 9)",
            RuleMask::all().without_pointer_chase(),
        ),
        (
            "no pointer join (rule 8)",
            RuleMask::all().without_pointer_join(),
        ),
        (
            "no selection pushing (rule 6)",
            RuleMask::all().without_selection_pushing(),
        ),
        ("no rewriting at all", RuleMask::none()),
    ];
    for (name, mask) in variants {
        let opt = Optimizer::new(&u.site.scheme, &catalog, &stats).with_policy(&ExecPolicy {
            mask,
            ..Default::default()
        });
        match opt.optimize(&query) {
            Ok(e) => println!("  {name:<32} {:>8.1}", e.best().estimate.cost.pages),
            Err(err) => println!("  {name:<32} failed: {err}"),
        }
    }
    Ok(())
}
